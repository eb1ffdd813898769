package main

// References are the expected outputs of the mine workloads, as
// mineOutcome.key prints them: a fingerprint of the sorted canonical DC
// set and the exact work counters. mine-enum and mine-tuple get the same
// input for every seed, so one entry covers them all; mine-sample's
// input depends on the seed, so it has an entry per recorded seed. They
// were recorded when the benchmark was defined; a change that alters
// what the miner outputs or how much work it does must update them and
// say so.
var (
	seedlessReferences = map[string]string{
		"mine-enum":  "fp=4e86c5d6d62b3211 dcs=2523 calls=33559 outputs=2523 loss_evals=47926 distinct=18188",
		"mine-tuple": "fp=64fcf6548c084adc dcs=86 calls=893 outputs=86 loss_evals=1112 distinct=2045",
	}
	seededReferences = map[string]map[int64]string{
		"mine-sample": {
			1:  "fp=f9ea2c30fbb985ec dcs=104 calls=1407 outputs=104 loss_evals=2006 distinct=7887",
			2:  "fp=5366ac3fe70e63ba dcs=101 calls=1392 outputs=101 loss_evals=1954 distinct=8550",
			3:  "fp=f19f0dbebb7e97ca dcs=111 calls=1381 outputs=111 loss_evals=1994 distinct=8046",
			4:  "fp=ef9458bbf2a7ff4d dcs=106 calls=1443 outputs=106 loss_evals=2066 distinct=9200",
			5:  "fp=5366ac3fe70e63ba dcs=101 calls=1420 outputs=101 loss_evals=2021 distinct=8583",
			6:  "fp=95c22592f72dc003 dcs=103 calls=1447 outputs=103 loss_evals=2070 distinct=9265",
			7:  "fp=e1a0269e8d4f2041 dcs=114 calls=1406 outputs=114 loss_evals=2014 distinct=8028",
			8:  "fp=e3623acdaa88db08 dcs=103 calls=1399 outputs=103 loss_evals=1995 distinct=7318",
			9:  "fp=1317128d813b3f52 dcs=117 calls=1439 outputs=117 loss_evals=2088 distinct=9034",
			10: "fp=b506cb7e9bd033f6 dcs=110 calls=1391 outputs=110 loss_evals=1979 distinct=8715",
		},
	}
)

// reference returns the recorded output for the workload and seed.
func reference(spec mineSpec, seed int64) (string, bool) {
	if want, ok := seedlessReferences[spec.name]; ok {
		return want, true
	}
	want, ok := seededReferences[spec.name][seed]
	return want, ok
}

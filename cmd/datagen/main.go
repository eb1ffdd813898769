// Command datagen emits the paper's evaluation datasets (Table 4) as
// CSV, optionally dirtied with the noise models of Section 8.4.
//
// Usage:
//
//	datagen -dataset tax -rows 10000 > tax.csv
//	datagen -dataset food -rows 5000 -noise spread -rate 0.001 > food_dirty.csv
//	datagen -dataset stock -golden
//	datagen -dataset adult -rows 100000 -verify > adult.csv
//
// With -verify the emitted CSV is simultaneously fed through the
// streaming ingest reader (adc.ReadCSV) and the parsed relation is
// checked against the generated one — shape, column types, and row
// rendering — so type flips introduced by CSV round-tripping (for
// example a float column whose sampled values all happen to print as
// integers) are caught at generation time instead of at mine time.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"adc"
	"adc/internal/datagen"
)

func main() {
	var (
		name   = flag.String("dataset", "tax", "dataset: "+strings.Join(datagen.Names(), ", "))
		rows   = flag.Int("rows", 1000, "number of rows to generate")
		seed   = flag.Int64("seed", 1, "generation seed")
		noise  = flag.String("noise", "none", "noise model: none, spread, or skewed")
		rate   = flag.Float64("rate", 0.001, "noise rate (cell probability or tuple fraction)")
		golden = flag.Bool("golden", false, "print the golden DCs instead of data")
		verify = flag.Bool("verify", false, "stream the emitted CSV back through the ingest reader and check the round trip")
	)
	flag.Parse()

	d, err := datagen.ByName(*name, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	if *golden {
		for _, g := range d.Golden {
			fmt.Println(g)
		}
		return
	}
	rel := d.Rel
	switch *noise {
	case "none":
	case "spread":
		rel = datagen.AddNoise(rel, datagen.Spread, *rate, rand.New(rand.NewSource(*seed)))
	case "skewed":
		rel = datagen.AddNoise(rel, datagen.Skewed, *rate, rand.New(rand.NewSource(*seed)))
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown noise model %q\n", *noise)
		os.Exit(2)
	}

	var out io.Writer = os.Stdout
	var parsed chan parseResult
	var pw *io.PipeWriter
	if *verify {
		// Tee the CSV into the streaming reader as it is written; the
		// reader parses chunks concurrently with generation.
		var pr *io.PipeReader
		pr, pw = io.Pipe()
		out = io.MultiWriter(os.Stdout, pw)
		parsed = make(chan parseResult, 1)
		go func() {
			back, err := adc.ReadCSV(pr, rel.Name, true)
			pr.CloseWithError(err) // unblock the writer if parsing fails early
			parsed <- parseResult{back, err}
		}()
	}
	if err := rel.WriteCSV(out); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
	if *verify {
		pw.Close()
		res := <-parsed
		if res.err != nil {
			fmt.Fprintln(os.Stderr, "datagen: verify:", res.err)
			os.Exit(1)
		}
		if err := roundTripEqual(rel, res.rel); err != nil {
			fmt.Fprintln(os.Stderr, "datagen: verify:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "datagen: verify: %d rows, %d columns round-trip clean\n",
			res.rel.NumRows(), res.rel.NumColumns())
	}
}

type parseResult struct {
	rel *adc.Relation
	err error
}

// roundTripEqual checks that the re-ingested relation matches the
// generated one in shape, column names and types, and row rendering.
func roundTripEqual(want, got *adc.Relation) error {
	if got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
		return fmt.Errorf("shape changed: got %dx%d, want %dx%d",
			got.NumRows(), got.NumColumns(), want.NumRows(), want.NumColumns())
	}
	for j, c := range want.Columns {
		g := got.Columns[j]
		if g.Name != c.Name {
			return fmt.Errorf("column %d renamed: got %q, want %q", j, g.Name, c.Name)
		}
		if g.Type != c.Type {
			return fmt.Errorf("column %q type flipped: got %v, want %v (CSV text does not preserve it)",
				c.Name, g.Type, c.Type)
		}
	}
	for i := 0; i < want.NumRows(); i++ {
		if got.Row(i) != want.Row(i) {
			return fmt.Errorf("row %d changed: got %s, want %s", i, got.Row(i), want.Row(i))
		}
	}
	return nil
}

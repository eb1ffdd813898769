// Command dcserved serves denial-constraint mining and checking over
// HTTP/JSON: register a dataset once, then validate, repair, append,
// and mine against cached per-dataset state (position list indexes,
// compiled DC plans, evidence sets) instead of rebuilding them per
// invocation as the CLIs do.
//
// Endpoints:
//
//	POST   /datasets                   ingest CSV or generate synthetic data
//	GET    /datasets                   list registered datasets
//	GET    /datasets/{id}              dataset info and cache state
//	DELETE /datasets/{id}              drop a dataset
//	POST   /datasets/{id}/rows         append rows (incremental index patch)
//	POST   /datasets/{id}/validate     check DCs (synchronous, cached)
//	POST   /datasets/{id}/repair       greedy deletion repair (synchronous)
//	POST   /datasets/{id}/mine         start an async mining job
//	POST   /datasets/{id}/invalidate   drop the dataset's caches
//	GET    /jobs/{id}                  poll a mining job
//	GET    /healthz                    liveness
//	GET    /metrics                    counters, cache hit rate, latency
//
// Usage:
//
//	dcserved -addr :8080 -max-datasets 64 -max-mem-mb 1024
//	dcserved -data-dir /var/lib/dcserved   # persistent sessions
//
// With -data-dir, every registered session is snapshotted to disk in a
// columnar format, every acked append batch is fsynced to the
// session's write-ahead log before the 200 (so a kill -9 loses no
// acked append), LRU eviction spills sessions to disk instead of
// discarding them, touched spilled sessions restore by mmap attach
// plus WAL replay — no CSV re-ingest, no index rebuild — and a
// restarted server resumes every session the directory holds. On disk
// failure (ENOSPC, EIO) sessions degrade to memory-only serving,
// flagged on /healthz, instead of failing requests.
//
// SIGINT/SIGTERM triggers a graceful shutdown: in-flight requests get
// -shutdown-grace to finish before the listener is torn down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"adc/internal/server"
	"adc/internal/sigctx"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		maxDatasets = flag.Int("max-datasets", 64, "max cached dataset sessions (LRU eviction beyond)")
		maxMemMB    = flag.Int64("max-mem-mb", 1024, "memory cap in MiB across sessions (LRU eviction beyond)")
		maxBodyMB   = flag.Int64("max-body-mb", 64, "max request body size in MiB")
		grace       = flag.Duration("shutdown-grace", 10*time.Second, "graceful shutdown timeout")
		pprofOn     = flag.Bool("pprof", false, "serve /debug/pprof/ profiling endpoints (do not expose publicly)")
		dataDir     = flag.String("data-dir", "", "persistent session storage directory: sessions snapshot here, acked appends land in a per-session WAL, evictions spill to disk, restarts resume (empty = in-memory only)")
		walSync     = flag.Bool("wal-sync", true, "fsync every WAL record before acking its append; false survives process crashes but not power loss")
		snapEvery   = flag.Int("snapshot-every", 64, "WAL records accumulated before an append triggers a compacting snapshot")
	)
	flag.Parse()

	srv, err := server.New(server.Config{
		MaxDatasets:   *maxDatasets,
		MaxMemBytes:   *maxMemMB << 20,
		MaxBodyBytes:  *maxBodyMB << 20,
		DataDir:       *dataDir,
		WALNoSync:     !*walSync,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserved:", err)
		os.Exit(1)
	}
	handler := srv.Handler()
	if *pprofOn {
		// Opt-in profiling mux in front of the API, so perf work can
		// attach `go tool pprof` to a live server without code edits.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		log.Printf("dcserved: pprof enabled at /debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := sigctx.NotifyContext(context.Background())
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("dcserved: listening on %s (max %d datasets, %d MiB)", *addr, *maxDatasets, *maxMemMB)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "dcserved:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default disposition: a second signal kills immediately
		log.Printf("dcserved: shutting down (grace %s)", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("dcserved: forced shutdown: %v", err)
			httpSrv.Close()
		}
		// Shutdown only drains HTTP requests; accepted mine jobs keep
		// running in goroutines. Give them the rest of the grace window
		// so a CI teardown (or a rolling restart) never truncates an
		// analytical job mid-flight.
		if err := srv.Drain(shutdownCtx); err != nil {
			log.Printf("dcserved: mine jobs still running after grace: %v", err)
		}
	}
}

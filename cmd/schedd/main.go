// Command schedd runs the scheduler service: a daemon accepting
// workflow scheduling jobs over a versioned HTTP/JSON API and serving
// learned plans, provenance and Prometheus metrics. See
// internal/schedd for the API surface.
//
// Usage:
//
//	schedd [-listen :8425] [-workers N] [-queue N] [-episodes N] [-pprof]
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: in-flight jobs are
// canceled, workers drained, and "schedd: shutdown clean" printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reassign/internal/schedd"
)

// Connection timeouts. A submission is read whole into memory before
// it is decoded (the buffer is sized from Content-Length), so a client
// must not be able to hold one open indefinitely by trickling bytes.
// There is no WriteTimeout: status bodies are small, polls are
// frequent, and /debug/pprof/profile streams for as long as it is
// asked to.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	listen := flag.String("listen", ":8425", "listen address (use :0 for an ephemeral port)")
	workers := flag.Int("workers", 0, "concurrent job executors (default GOMAXPROCS)")
	queue := flag.Int("queue", 256, "admission queue depth; beyond it submissions get 429")
	episodes := flag.Int("episodes", 0, "default episode budget for submissions that leave it unset (default 100)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default: profiling endpoints expose internals and cost CPU when scraped)")
	flag.Parse()

	if err := run(*listen, *pprofOn, schedd.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultEpisodes: *episodes,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(1)
	}
}

func run(listen string, pprofOn bool, cfg schedd.Config) error {
	s := schedd.New(cfg)
	s.Start()

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("schedd: listening on %s\n", ln.Addr())

	handler := s.Handler()
	if pprofOn {
		// Mounted explicitly rather than via the package's init side
		// effect: the API handler is not the default mux, so a blank
		// import alone would register the endpoints nowhere reachable.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Println("schedd: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("schedd: %v, draining\n", sig)
	case err := <-errc:
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("draining workers: %w", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("closing listener: %w", err)
	}
	fmt.Println("schedd: shutdown clean")
	return nil
}

// Command execworker is the execution-stage worker process: it
// connects to a reassign master over TCP (the Go analogue of the
// paper's MPI SCSlave), executes the attempts the master dispatches,
// and reports results and heartbeats until the master shuts it down.
//
// Usage:
//
//	execworker -connect 127.0.0.1:7077
//	execworker -connect master:7077 -runner sim -seed 3
//	execworker -connect master:7077 -runner cmd     # exec the DAX argv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"reassign/internal/cloud"
	"reassign/internal/exec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "execworker: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	connect := flag.String("connect", "", "master address to join (required)")
	runnerName := flag.String("runner", "sleep", "attempt runner: sleep|sim|cmd")
	seed := flag.Int64("seed", 1, "seed for the sim runner's fluctuation draws")
	fluct := flag.Bool("fluct", true, "apply the cloud fluctuation model (sim runner)")
	failRate := flag.Float64("failrate", 0, "inject per-attempt failures with this probability")
	retryFor := flag.Duration("retry", 10*time.Second, "keep retrying a refused connection for this long (the master may not be listening yet)")
	flag.Parse()
	if *connect == "" {
		return fmt.Errorf("-connect is required")
	}

	newRunner := func(timeScale float64) exec.Runner {
		var r exec.Runner
		switch *runnerName {
		case "sim":
			sr := exec.SimRunner{Seed: *seed}
			if *fluct {
				f := cloud.DefaultFluctuation()
				sr.Fluct = &f
			}
			r = sr
		case "cmd":
			r = exec.CommandRunner{}
		default:
			r = exec.SleepRunner{Scale: timeScale}
		}
		if *failRate > 0 {
			r = exec.FailingRunner{Inner: r, Rate: *failRate, Seed: *seed}
		}
		return r
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	deadline := time.Now().Add(*retryFor)
	for {
		err := exec.Dial(ctx, *connect, newRunner)
		if errors.Is(err, syscall.ECONNREFUSED) && time.Now().Before(deadline) && ctx.Err() == nil {
			time.Sleep(200 * time.Millisecond)
			continue
		}
		return err
	}
}

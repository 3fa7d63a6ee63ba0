// Command nbtisimd is the long-running simulation service: an
// HTTP/JSON daemon that accepts declarative sim.Spec submissions
// (author them with nbtisim -emit-spec), queues them on a bounded
// priority queue, executes them through a bounded worker pool, and
// dedups identical work through the content-addressed result cache —
// a million identical submissions cost one simulation.
//
//	nbtisimd -addr 127.0.0.1:8310 -j 4 -cache-dir /var/cache/nbtinoc
//
// SIGTERM/SIGINT drains gracefully: new submissions get 503, every
// accepted job finishes, then the process exits. See the README
// "Simulation service" section for the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"nbtinoc/cmd/internal/cli"
	"nbtinoc/internal/prof"
	"nbtinoc/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nbtisimd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("nbtisimd", flag.ContinueOnError)
	cf := cli.Flags{Prog: "nbtisimd"}
	cf.RegisterCache(fs)
	var (
		addr        = fs.String("addr", "127.0.0.1:8310", "listen address (host:port; :0 picks a free port)")
		jobs        = fs.Int("j", 0, "simulation workers: 0 = one per core")
		queueCap    = fs.Int("queue", service.DefaultQueueCap, "job queue capacity (submissions beyond it get 429)")
		clientLimit = fs.Int("client-limit", 64, "max queued+running jobs per client (X-Client-ID header or remote host); 0 = unlimited")
		jobTimeout  = fs.Duration("job-timeout", 0, "fail jobs still running after this long (0 = no timeout)")
		verbose     = fs.Bool("v", false, "log job completions and print cache statistics on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The daemon always carries a live registry: /metrics is part of
	// the service API, not an opt-in like the CLI's -metrics-addr.
	sess, err := cf.Start(true)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)

	store, err := sess.OpenCache()
	if err != nil {
		return err
	}
	// internal/service never touches the time package (determinism
	// lint); the binary hands it the host clock.
	cfg := service.Config{
		Store:        store,
		Workers:      *jobs,
		QueueCap:     *queueCap,
		ClientLimit:  *clientLimit,
		JobTimeoutNS: int64(*jobTimeout),
		Debug:        prof.HTTPHandler(),
		Clock:        cli.Now,
		After:        cli.After,
	}
	if *verbose {
		cfg.Warnf = sess.Logf
	}

	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake: tests and
	// scripts using -addr :0 parse the port from it.
	fmt.Fprintf(out, "nbtisimd: listening on http://%s\n", ln.Addr())
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		return err
	case got := <-sig:
		fmt.Fprintf(out, "nbtisimd: %v: draining (in-flight jobs finish, new submissions get 503)\n", got)
	}
	// Drain first so /healthz and /jobs report the draining state while
	// accepted jobs finish; only then stop the HTTP listener.
	srv.Drain()
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if *verbose && store != nil {
		sess.Logf("cache: %s", store.Stats())
	}
	fmt.Fprintln(out, "nbtisimd: drained, bye")
	return nil
}

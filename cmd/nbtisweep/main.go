// Command nbtisweep runs sharded campaigns: it shards a campaign's
// content-addressed work units across worker processes that share one
// result cache, and merges the finished campaign into a deterministic
// CSV report — byte-identical at any (processes × workers) topology. A
// campaign is a spec list, one unit per distinct spec: a grid (JSON: a
// base spec as nbtisim -emit-spec prints it, plus axes that sweep spec
// fields by their JSON paths) expanded point by point, or a manifest
// written by tables or nbtisim -sweep-manifest:
//
//	nbtisweep -grid grid.json -manifest camp.json -procs 4 -j 2
//
// Workers coordinate through the cache directory itself: lease files
// give cross-process single-flight (no unit is ever computed twice
// concurrently), a killed worker's claims expire by heartbeat, and a
// unit is done exactly when the cache holds its key. The manifest is
// written once, when the campaign is created, and never rewritten; a
// killed campaign resumes by running what the cache still lacks, and
// -status counts done and pending units in the -cache-dir cache:
//
//	nbtisweep -manifest camp.json            # resume
//	nbtisweep -manifest camp.json -status    # inspect progress
//
// Every worker gets the whole pending list, rotated to its own starting
// point: leases turn the overlap into claims, so each unit is computed
// once, and a dead worker's units are taken over by the survivors in
// the same round (the round still fails, so its report is only written
// by a clean rerun). -o writes the merged report to a file instead of
// stdout; stderr carries progress and the aggregated cache statistics
// of all workers, never report bytes.
//
// The "worker" subcommand is the re-exec entry point the coordinator
// spawns: it reads its share of the campaign as JSON on stdin, writes
// its report as JSON to stdout and logs only to stderr. It is not meant
// to be invoked by hand. -kill-worker/-kill-after
// make the chosen worker exit mid-batch — a crash-injection hook for
// the resume tests and CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"nbtinoc/cmd/internal/cli"
	"nbtinoc/internal/cache"
	"nbtinoc/internal/metrics"
	"nbtinoc/internal/sim"
	"nbtinoc/internal/sweep"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "worker" {
		if err := runWorker(args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "nbtisweep worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(args, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nbtisweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("nbtisweep", flag.ContinueOnError)
	cf := cli.Flags{Prog: "nbtisweep"}
	cf.RegisterProfile(fs, "trace")
	cf.RegisterMetrics(fs)
	var (
		gridPath     = fs.String("grid", "", "grid JSON describing the campaign (new campaigns)")
		manifestPath = fs.String("manifest", "", "campaign manifest: created with -grid, resumed without")
		procs        = fs.Int("procs", 1, "worker processes (1 runs in-process)")
		jobs         = fs.Int("j", 0, "per-process pool width: 0 = one per core, 1 = sequential")
		cacheDir     = fs.String("cache-dir", "", "shared result cache directory (default: user cache dir)")
		outPath      = fs.String("o", "", "write the merged report to this file (default stdout)")
		status       = fs.Bool("status", false, "print how many of the manifest's units the cache holds and exit")
		leaseTTL     = fs.Duration("lease-ttl", 0, "override the lease staleness horizon (default 10s)")
		killWorker   = fs.Int("kill-worker", -1, "crash injection: which spawned worker to kill (-1 = none)")
		killAfter    = fs.Int("kill-after", 1, "crash injection: kill after this many completed units")
		verbose      = fs.Bool("v", false, "print progress and campaign cache statistics to stderr")
		engineVer    = fs.Bool("engine-version", false, "print the engine fingerprint baked into cache keys, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineVer {
		fmt.Fprintln(out, sim.EngineVersion)
		return nil
	}
	if *status {
		if *manifestPath == "" {
			return fmt.Errorf("-status needs -manifest")
		}
		m, err := sweep.LoadManifest(*manifestPath)
		if err != nil {
			return err
		}
		pending := len(m.Pending(cache.Open(cacheDirOr(*cacheDir), cache.ReadOnly)))
		fmt.Fprintf(out, "campaign %s: %d units: %d done, %d pending\n",
			m.Name, len(m.Units), len(m.Units)-pending, pending)
		return nil
	}
	sess, err := cf.Start(*verbose)
	if err != nil {
		return err
	}
	defer sess.Finish(&err)

	manifest, err := resolveCampaign(*gridPath, *manifestPath)
	if err != nil {
		return err
	}
	c := &sweep.Coordinator{
		Manifest: manifest,
		CacheDir: cacheDirOr(*cacheDir),
		Procs:    *procs,
		Workers:  *jobs,
		Clock:    cli.Now,
		Lease:    cli.LeasePolicy(*leaseTTL),
	}
	if *verbose {
		c.Logf = sess.Logf
		r := metrics.Default()
		sess.Progress(&metrics.Progress{
			JobsDone:  sweep.MetricUnitsDone,
			JobsTotal: sweep.MetricUnitsTotal,
			Extra: func() string {
				w := r.CounterValue(cache.MetricLeaseWaited)
				s := r.CounterValue(cache.MetricLeaseTakeovers)
				if w == 0 && s == 0 {
					return ""
				}
				return fmt.Sprintf("lease wait %d steal %d", w, s)
			},
		})
	}
	if *procs > 1 {
		c.Spawn = execWorkerSpawn(*leaseTTL, *killWorker, *killAfter, *verbose)
	}

	var w io.Writer = out
	if *outPath != "" {
		f, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if ferr := f.Close(); ferr != nil && err == nil {
				err = ferr
			}
		}()
		w = f
	}
	_, err = c.Run(w)
	return err
}

// cacheDirOr is dir, or the user cache directory when dir is empty.
func cacheDirOr(dir string) string {
	if dir == "" {
		return cache.DefaultDir()
	}
	return dir
}

// resolveCampaign builds the campaign from the flag combination: fresh
// from a grid (saved to the manifest path, when one is given — the
// only time a manifest is written), resumed from a manifest, or — both
// given and the manifest file already existing — resumed after checking
// that the grid expands to the recorded campaign (same name, same unit
// keys in the same order).
func resolveCampaign(gridPath, manifestPath string) (*sweep.Manifest, error) {
	if gridPath == "" && manifestPath == "" {
		return nil, fmt.Errorf("need -grid (new campaign) or -manifest (resume)")
	}
	var fresh *sweep.Manifest
	if gridPath != "" {
		var err error
		if fresh, err = sweep.LoadGridFile(gridPath); err != nil {
			return nil, err
		}
	}
	if manifestPath != "" {
		if _, err := os.Stat(manifestPath); err == nil {
			m, err := sweep.LoadManifest(manifestPath)
			if err != nil {
				return nil, err
			}
			if fresh != nil && !sameCampaign(fresh, m) {
				return nil, fmt.Errorf("grid %s does not match manifest %s (campaign was started from a different grid)",
					gridPath, manifestPath)
			}
			return m, nil
		}
	}
	if fresh == nil {
		return nil, fmt.Errorf("manifest %s does not exist and no -grid was given to create it", manifestPath)
	}
	if manifestPath != "" {
		if err := fresh.Save(manifestPath); err != nil {
			return nil, err
		}
	}
	return fresh, nil
}

// sameCampaign reports whether two manifests name the same campaign:
// the same name and the same unit keys in the same order.
func sameCampaign(a, b *sweep.Manifest) bool {
	return a.Name == b.Name && slices.EqualFunc(a.Units, b.Units,
		func(x, y sweep.Unit) bool { return x.Key == y.Key })
}

// execWorkerSpawn re-execs this binary's "worker" subcommand per
// shard — real OS processes, each with its own cache Store, flight
// map and lease identity — handing each its share on stdin.
func execWorkerSpawn(ttl time.Duration, killWorker, killAfter int, verbose bool) func(int, *sweep.Assignment) (*sweep.WorkerReport, error) {
	return func(w int, a *sweep.Assignment) (*sweep.WorkerReport, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		args := []string{"worker"}
		if ttl > 0 {
			args = append(args, "-lease-ttl", ttl.String())
		}
		if w == killWorker {
			args = append(args, "-kill-after", strconv.Itoa(killAfter))
		}
		if verbose {
			args = append(args, "-v")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		return sweep.ExecWorker(cmd, a)
	}
}

// runWorker is the spawned-process entry point: run the assignment
// read from stdin against the shared cache and write the report to
// stdout.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("nbtisweep worker", flag.ContinueOnError)
	var (
		leaseTTL  = fs.Duration("lease-ttl", 0, "override the lease staleness horizon")
		killAfter = fs.Int("kill-after", 0, "crash injection: exit(3) after this many completed units")
		verbose   = fs.Bool("v", false, "log per-batch completion to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	env := sweep.WorkerEnv{Clock: cli.Now, Lease: cli.LeasePolicy(*leaseTTL)}
	if *killAfter > 0 {
		n := *killAfter
		env.AfterUnit = func(completed int) {
			if completed >= n {
				// Die like a crash: no report, no lease release — the
				// abandoned claims must expire by heartbeat.
				os.Exit(3)
			}
		}
	}
	if *verbose {
		var done atomic.Int64
		prev := env.AfterUnit
		env.AfterUnit = func(completed int) {
			fmt.Fprintf(os.Stderr, "nbtisweep worker %d: %d units done\n", os.Getpid(), done.Add(1))
			if prev != nil {
				prev(completed)
			}
		}
	}
	return sweep.ServeWorker(os.Stdin, os.Stdout, env)
}

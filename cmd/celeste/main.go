// Command celeste runs the full Bayesian inference pipeline on a survey
// directory written by skygen, producing a catalog with posterior
// uncertainties:
//
//	celeste -sky ./sky -out catalog.jsonl -threads 8 -rounds 2
//
// If the directory contains truth.jsonl, accuracy against ground truth is
// reported.
//
// Long runs are killable and resumable: -checkpoint persists the run state
// to a file at task-boundary intervals, and -resume restarts from it,
// producing a catalog byte-identical to an uninterrupted run:
//
//	celeste -sky ./sky -checkpoint run.celk            # killed partway
//	celeste -sky ./sky -checkpoint run.celk -resume    # finishes the run
//
// The run can also be distributed over real worker processes speaking the
// TCP wire protocol (internal/net), reproducing the in-process catalog
// byte-for-byte. Either spawn local workers in one step:
//
//	celeste -sky ./sky -spawn 4
//
// or run the coordinator and workers by hand (possibly on other machines
// sharing the survey directory):
//
//	celeste -sky ./sky -serve :7021
//	celeste -sky ./sky -worker host:7021 &   # × N
//
// The catalog is queryable over HTTP — live during a fit (served from RCU
// snapshots refreshed as tasks commit) or from a finished catalog file:
//
//	celeste -sky ./sky -query :8080              # fit + live query service
//	celeste -query :8080 -load catalog.jsonl     # serve a finished catalog
//
// Endpoints: /cone?ra=&dec=&r=, /box?ramin=&decmin=&ramax=&decmax=,
// /brightest?n=[&band=], /stats (all accept &limit= where meaningful).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"celeste"
	"celeste/internal/flops"
	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/survey"
)

// flagConfig is the subset of flags whose combinations need validating, in a
// plain struct so the matrix is table-testable.
type flagConfig struct {
	Serve           string        // -serve listen address
	Worker          string        // -worker coordinator address
	Spawn           int           // -spawn local worker count
	SpawnSet        bool          // -spawn appeared on the command line
	Checkpoint      string        // -checkpoint path
	CheckpointEvery int           // -checkpoint-every
	Resume          bool          // -resume
	Procs           int           // -procs
	ProcsSet        bool          // -procs appeared on the command line
	Threads         int           // -threads
	Query           string        // -query listen address
	Load            string        // -load catalog path
	Supervise       bool          // -supervise
	MaxRestarts     int           // -max-restarts
	ServeFD         int           // -serve-fd (internal; 0 when absent — fd 0 is never a listener)
	Rejoin          int           // -rejoin
	RejoinWindow    time.Duration // -rejoin-window
}

// validateFlags rejects contradictory or silently misbehaving flag
// combinations up front, with errors that say what to do instead.
func validateFlags(fc flagConfig) error {
	switch {
	case fc.SpawnSet && fc.Spawn < 1:
		return fmt.Errorf("-spawn %d: need at least one worker process", fc.Spawn)
	case fc.Worker != "" && fc.Serve != "":
		return errors.New("-worker and -serve are mutually exclusive: a process is either a worker or the coordinator")
	case fc.Worker != "" && fc.SpawnSet:
		return errors.New("-worker and -spawn are mutually exclusive: only the coordinator spawns workers")
	case fc.Worker != "" && fc.Checkpoint != "":
		return errors.New("-worker cannot take -checkpoint: the coordinator owns checkpointing (pass -checkpoint to the -serve/-spawn process)")
	case fc.Worker != "" && fc.Resume:
		return errors.New("-worker cannot take -resume: the coordinator owns checkpoint state (pass -resume to the -serve/-spawn process)")
	case fc.Resume && fc.Checkpoint == "":
		return errors.New("-resume requires -checkpoint to name the checkpoint file")
	case fc.Serve != "" && fc.SpawnSet:
		return errors.New("-serve and -spawn are mutually exclusive: -spawn listens on a loopback port it picks itself")
	case fc.Procs < 1:
		return fmt.Errorf("-procs %d: need at least one process", fc.Procs)
	case fc.ProcsSet && fc.SpawnSet && fc.Procs != fc.Spawn:
		return fmt.Errorf("-procs %d with -spawn %d: -spawn N serves exactly N ranks (drop -procs or make it equal)", fc.Procs, fc.Spawn)
	case fc.Threads < 1:
		return fmt.Errorf("-threads %d: need at least one thread", fc.Threads)
	case fc.Load != "" && fc.Query == "":
		return errors.New("-load requires -query: a loaded catalog is only used to serve queries")
	case fc.Load != "" && (fc.Worker != "" || fc.Serve != "" || fc.SpawnSet ||
		fc.Checkpoint != "" || fc.Resume):
		return errors.New("-load serves a finished catalog without running inference; it cannot combine with -worker, -serve, -spawn, -checkpoint, or -resume")
	case fc.Query != "" && fc.Worker != "":
		return errors.New("-query only applies to the coordinator or to -load: a worker process does not own catalog state")
	case fc.Supervise && fc.Checkpoint == "":
		return errors.New("-supervise requires -checkpoint: a restarted coordinator resumes from it")
	case fc.Supervise && fc.Serve == "" && !fc.SpawnSet:
		return errors.New("-supervise requires -serve or -spawn: only the TCP coordinator is supervised")
	case fc.Supervise && fc.Worker != "":
		return errors.New("-supervise applies to the coordinator, not -worker (workers re-enroll on their own via -rejoin)")
	case fc.Supervise && fc.Query != "":
		return errors.New("-supervise cannot host -query: the query service lives inside the coordinator child process")
	case fc.ServeFD > 0 && (fc.Serve != "" || fc.SpawnSet || fc.Supervise || fc.Worker != ""):
		return errors.New("-serve-fd is internal to -supervise coordinator children and excludes -serve, -spawn, -supervise, and -worker")
	case fc.Rejoin < 0:
		return fmt.Errorf("-rejoin %d: the re-enrollment budget must be non-negative", fc.Rejoin)
	case fc.RejoinWindow < 0:
		return errors.New("-rejoin-window must be non-negative")
	case (fc.Rejoin > 0 || fc.RejoinWindow > 0) && fc.Worker == "" && !(fc.Supervise && fc.SpawnSet):
		return errors.New("-rejoin and -rejoin-window configure a -worker process (or the workers of a supervised -spawn)")
	case fc.Checkpoint != "" && fc.CheckpointEvery < 1:
		return fmt.Errorf("-checkpoint-every %d: need at least 1 task between checkpoints, or no checkpoint file would ever be written", fc.CheckpointEvery)
	case fc.Supervise && fc.MaxRestarts < 1:
		return fmt.Errorf("-max-restarts %d: -supervise needs at least one restart (a supervisor with no restarts is a plain -serve/-spawn run)", fc.MaxRestarts)
	}
	return nil
}

func main() {
	sky := flag.String("sky", "sky", "survey directory from skygen")
	out := flag.String("out", "catalog.jsonl", "output catalog path")
	threads := flag.Int("threads", 8, "Cyclades worker threads per process")
	patchThreads := flag.Int("patch-threads", 0, "intra-fit patch-sweep workers per thread (0: derive from spare cores; any value yields byte-identical catalogs)")
	procs := flag.Int("procs", 4, "Dtree/PGAS processes (with -serve: expected worker connections)")
	rounds := flag.Int("rounds", 2, "block coordinate ascent rounds per task")
	maxIter := flag.Int("maxiter", 40, "Newton iterations per source fit")
	seed := flag.Uint64("seed", 1, "random seed")
	ckPath := flag.String("checkpoint", "", "checkpoint file to write at task boundaries (empty: no checkpointing)")
	ckEvery := flag.Int("checkpoint-every", 1, "tasks between checkpoints")
	resume := flag.Bool("resume", false, "resume from -checkpoint if the file exists")
	serveAddr := flag.String("serve", "", "serve the run over TCP on this address; -procs worker processes fill its static ranks, and later ones join past them")
	workerAddr := flag.String("worker", "", "join the run served by the coordinator at this address as one worker process")
	spawn := flag.Int("spawn", 0, "serve on a loopback port and fork this many local worker processes")
	queryAddr := flag.String("query", "", "serve catalog queries over HTTP on this address, live during the fit and from the final catalog after it")
	loadPath := flag.String("load", "", "with -query: serve this finished catalog file instead of running inference")
	supervise := flag.Bool("supervise", false, "with -serve/-spawn and -checkpoint: fork the coordinator as a child and restart it from the checkpoint if it dies to a signal")
	maxRestarts := flag.Int("max-restarts", 5, "with -supervise: coordinator restarts before giving up")
	serveFD := flag.Int("serve-fd", 0, "internal: coordinator child inherits its listening socket on this file descriptor (set by -supervise; 0: unset)")
	rejoin := flag.Int("rejoin", 0, "with -worker: re-dial budget per outage when the coordinator connection drops (0: fail on first loss)")
	rejoinWindow := flag.Duration("rejoin-window", 0, "with -worker: give up re-enrolling after this long in one outage (0: no deadline)")
	flag.Parse()

	fc := flagConfig{
		Serve: *serveAddr, Worker: *workerAddr, Spawn: *spawn,
		Checkpoint: *ckPath, CheckpointEvery: *ckEvery, Resume: *resume,
		Procs: *procs, Threads: *threads,
		Query: *queryAddr, Load: *loadPath,
		Supervise: *supervise, MaxRestarts: *maxRestarts, ServeFD: *serveFD,
		Rejoin: *rejoin, RejoinWindow: *rejoinWindow,
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "spawn":
			fc.SpawnSet = true
		case "procs":
			fc.ProcsSet = true
		}
	})
	if err := validateFlags(fc); err != nil {
		log.Fatal(err)
	}

	if *loadPath != "" {
		// Query-only mode: index a finished catalog file and serve it until
		// interrupted. No survey directory, no inference.
		cat, err := imageio.ReadCatalog(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		store := celeste.NewCatalogStore(catalogBounds(cat), cat, celeste.CatalogOptions{})
		stop, bound, err := serveCatalog(store, *queryAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("serving %d catalog entries on http://%s (/cone /box /brightest /stats); Ctrl-C to exit\n",
			len(cat), bound)
		waitForSignal()
		return
	}

	if *supervise {
		// The supervisor owns only the listening socket and the worker pool;
		// the coordinator proper runs in restartable children.
		err := runSupervised(supConfig{
			ListenAddr: *serveAddr, Spawn: *spawn, SpawnSet: fc.SpawnSet,
			Procs: *procs, Sky: *sky, Out: *out,
			Threads: *threads, PatchThreads: *patchThreads,
			Rounds: *rounds, MaxIter: *maxIter, Seed: *seed,
			Checkpoint: *ckPath, CkEvery: *ckEvery,
			MaxRestarts: *maxRestarts,
			Rejoin:      *rejoin, RejoinWindow: *rejoinWindow,
		})
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	images, truth, err := imageio.ReadSurveyDir(*sky)
	if err != nil {
		log.Fatal(err)
	}
	init, err := imageio.ReadCatalog(filepath.Join(*sky, "init.jsonl"))
	if err != nil {
		log.Fatalf("reading init catalog: %v (run skygen first)", err)
	}

	// Rebuild the survey container around the loaded frames.
	sv := reassemble(images, truth)
	fmt.Printf("loaded %d frames, %d catalog entries\n", len(images), len(init))

	if *workerAddr != "" {
		// Worker mode: pull tasks from the coordinator until the run ends.
		// The run hash handshake proves this process reconstructed the same
		// survey, catalog, and partition byte-for-byte; the coordinator then
		// decides the rank — a free static one, else a fresh one past the
		// complement.
		wopts := celeste.WorkerOptions{
			Threads: *threads, PatchThreads: *patchThreads,
			Rejoin: *rejoin, RejoinWindow: *rejoinWindow,
		}
		if err := celeste.RunWorker(*workerAddr, sv, init, wopts); err != nil {
			log.Fatalf("worker: %v", err)
		}
		fmt.Println("worker: run complete")
		return
	}

	var opts celeste.InferOptions
	if *ckPath != "" {
		opts.CheckpointEvery = *ckEvery
		opts.OnCheckpoint = func(ck *celeste.Checkpoint) error {
			return imageio.SaveCheckpoint(*ckPath, ck)
		}
		if *resume {
			ck, err := imageio.LoadCheckpoint(*ckPath)
			switch {
			case err == nil:
				opts.Resume = ck
				fmt.Printf("resuming from %s (%d tasks done)\n", *ckPath, countDone(ck.Done))
			case os.IsNotExist(err):
				fmt.Printf("no checkpoint at %s; starting fresh\n", *ckPath)
			default:
				log.Fatalf("loading checkpoint: %v", err)
			}
		}
	}

	if *queryAddr != "" {
		// Live catalog service: the store is seeded with the init catalog and
		// refreshed by the run's commit hook; queries are answered throughout
		// the fit from RCU snapshots, and after the final flush they return
		// entries byte-identical to the written catalog.
		store := celeste.NewCatalogStore(sv.Config.Region, init, celeste.CatalogOptions{})
		opts.Catalog = store
		stop, bound, err := serveCatalog(store, *queryAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("catalog queries live on http://%s (/cone /box /brightest /stats)\n", bound)
	}

	var spawned []*exec.Cmd
	if *serveAddr != "" || fc.SpawnSet || *serveFD > 0 {
		var l net.Listener
		if *serveFD > 0 {
			// Supervised child: the parent owns the socket and passes it down,
			// so a restarted incarnation serves the same address and pending
			// worker dials queue in the backlog across the crash.
			f := os.NewFile(uintptr(*serveFD), "supervised-listener")
			l, err = net.FileListener(f)
			f.Close()
			if err != nil {
				log.Fatalf("inheriting listener from fd %d: %v", *serveFD, err)
			}
		} else {
			listenAddr := *serveAddr
			if fc.SpawnSet {
				listenAddr = "127.0.0.1:0"
				*procs = *spawn
			}
			if l, err = net.Listen("tcp", listenAddr); err != nil {
				log.Fatal(err)
			}
		}
		opts.Transport = &celeste.Transport{Listener: l}
		if *serveFD > 0 {
			// A supervised deployment's workers carry rejoin budgets: if a
			// fault severs every link at once, hold the run open for their
			// re-enrollment instead of stranding on the transient partition.
			opts.Transport.RejoinGrace = 30 * time.Second
		}
		fmt.Printf("serving on %s, expecting %d workers\n", l.Addr(), *procs)
		if fc.SpawnSet {
			spawned, err = spawnWorkers(l.Addr().String(), *spawn, *sky, *threads, *patchThreads)
			if err != nil {
				log.Fatal(err)
			}
		}
	}

	start := time.Now()
	res, err := celeste.InferWithOptions(sv, init, celeste.InferConfig{
		Threads: *threads, PatchThreads: *patchThreads, Processes: *procs,
		Rounds: *rounds, MaxIter: *maxIter, Seed: *seed,
	}, opts)
	for _, cmd := range spawned {
		// Workers exit after the coordinator's shutdown message; reap them.
		if werr := cmd.Wait(); werr != nil && err == nil {
			fmt.Fprintf(os.Stderr, "worker %d: %v\n", cmd.Process.Pid, werr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if err := imageio.WriteCatalog(*out, res.Catalog); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d entries to %s\n", len(res.Catalog), *out)
	fmt.Printf("%d tasks, %d fits, mean %.1f Newton iters/fit\n",
		res.TasksProcessed, res.Fits,
		float64(res.NewtonIters)/math.Max(float64(res.Fits), 1))
	if res.FailedRanks > 0 {
		fmt.Printf("recovered from %d dead workers (%d tasks requeued)\n",
			res.FailedRanks, res.RequeuedTasks)
	}
	if res.JoinedRanks > 0 || res.StolenTasks > 0 {
		fmt.Printf("elastic membership: %d joined, %d tasks stolen\n",
			res.JoinedRanks, res.StolenTasks)
	}
	fmt.Printf("%.2e FLOPs (%.1fM active pixel visits) in %s => %.2f paper-equivalent GFLOP/s (32,317 FLOP/visit, §VI-B)\n",
		flops.Total(res.Visits), float64(res.Visits)/1e6, elapsed.Round(time.Millisecond),
		flops.Rate(res.Visits, elapsed.Seconds())/1e9)

	if len(truth) > 0 {
		fmt.Println(accuracySummary(truth, res.Catalog, sv.Config.PixScale))
	}

	if *queryAddr != "" {
		fmt.Println("fit complete; still serving catalog queries (Ctrl-C to exit)")
		waitForSignal()
	}
}

// serveCatalog starts the hardened HTTP query layer over a catalog store,
// returning the bound address and a closer. The closer drains in-flight
// queries gracefully (bounded by a short deadline) before closing, so a
// Ctrl-C during a response never truncates it mid-body.
func serveCatalog(store *celeste.CatalogStore, addr string) (stop func(), bound string, err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := celeste.NewCatalogServer(store).HTTPServer()
	go srv.Serve(l)
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, l.Addr().String(), nil
}

// supConfig carries the flag values the supervised-coordinator parent needs.
type supConfig struct {
	ListenAddr      string // -serve address ("" with -spawn)
	Spawn           int
	SpawnSet        bool
	Procs           int
	Sky, Out        string
	Threads         int
	PatchThreads    int
	Rounds, MaxIter int
	Seed            uint64
	Checkpoint      string
	CkEvery         int
	MaxRestarts     int
	Rejoin          int
	RejoinWindow    time.Duration
}

// runSupervised is the coordinator-failover loop. The parent owns the
// listening socket and forks the actual coordinator as a child inheriting it
// on fd 3, so the address survives a crash: worker dials issued while no
// child is alive queue in the socket backlog. A child that dies to a signal
// (SIGKILL, OOM, panic-by-signal) is restarted with -resume against the
// checkpoint; a clean non-zero exit is a configuration error that would only
// repeat, so it is permanent. Workers are forked once, with a rejoin budget,
// and re-enroll with each new incarnation on their own — the run-hash
// handshake proves every incarnation is fitting the same run.
func runSupervised(sc supConfig) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	listenAddr := sc.ListenAddr
	procs := sc.Procs
	if sc.SpawnSet {
		listenAddr = "127.0.0.1:0"
		procs = sc.Spawn
	}
	l, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return err
	}
	defer l.Close()
	lf, err := l.(*net.TCPListener).File()
	if err != nil {
		return err
	}
	defer lf.Close()

	childArgs := []string{
		"-serve-fd", "3",
		"-sky", sc.Sky, "-out", sc.Out,
		"-threads", strconv.Itoa(sc.Threads),
		"-patch-threads", strconv.Itoa(sc.PatchThreads),
		"-procs", strconv.Itoa(procs),
		"-rounds", strconv.Itoa(sc.Rounds),
		"-maxiter", strconv.Itoa(sc.MaxIter),
		"-seed", strconv.FormatUint(sc.Seed, 10),
		"-checkpoint", sc.Checkpoint,
		"-checkpoint-every", strconv.Itoa(sc.CkEvery),
		"-resume",
	}

	var spawned []*exec.Cmd
	if sc.SpawnSet {
		rejoinBudget := sc.Rejoin
		if rejoinBudget == 0 {
			rejoinBudget = 1 << 10
		}
		window := sc.RejoinWindow
		if window == 0 {
			window = 2 * time.Minute
		}
		spawned, err = spawnWorkers(l.Addr().String(), sc.Spawn, sc.Sky, sc.Threads, sc.PatchThreads,
			"-rejoin", strconv.Itoa(rejoinBudget), "-rejoin-window", window.String())
		if err != nil {
			return err
		}
	}
	fmt.Printf("supervising coordinator on %s (up to %d restarts)\n", l.Addr(), sc.MaxRestarts)

	err = celeste.Supervise(func(int) error {
		cmd := exec.Command(exe, childArgs...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		cmd.ExtraFiles = []*os.File{lf}
		if err := cmd.Start(); err != nil {
			return err
		}
		return cmd.Wait()
	}, celeste.SuperviseOptions{
		MaxRestarts: sc.MaxRestarts,
		Permanent: func(err error) bool {
			// Only a signal death (ExitCode -1) is worth a restart; a clean
			// non-zero exit already printed its reason and would only repeat.
			var ee *exec.ExitError
			return !(errors.As(err, &ee) && ee.ExitCode() == -1)
		},
		OnRestart: func(r int, err error) {
			fmt.Printf("supervise: coordinator died (%v); restart %d resumes from %s\n",
				err, r, sc.Checkpoint)
		},
	})
	// No incarnation will accept from l again, but a worker that was between
	// rejoin attempts when the last one finished has yet to dial it: answer
	// until the fleet has exited.
	reason := cnet.ShutdownComplete
	if err != nil {
		reason = cnet.ShutdownAborted
	}
	cnet.Dismiss(l, reason, func() {
		for _, cmd := range spawned {
			if err != nil {
				cmd.Process.Kill()
			}
			if werr := cmd.Wait(); werr != nil && err == nil {
				fmt.Fprintf(os.Stderr, "worker %d: %v\n", cmd.Process.Pid, werr)
			}
		}
	})
	return err
}

// waitForSignal blocks until SIGINT or SIGTERM.
func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

// catalogBounds computes the footprint of a loaded catalog, padded so every
// position is interior and degenerate (single-point) extents stay valid.
func catalogBounds(entries []model.CatalogEntry) geom.Box {
	if len(entries) == 0 {
		return geom.NewBox(0, 0, 1, 1)
	}
	b := geom.Box{
		MinRA: entries[0].Pos.RA, MinDec: entries[0].Pos.Dec,
		MaxRA: entries[0].Pos.RA, MaxDec: entries[0].Pos.Dec,
	}
	for i := range entries {
		p := entries[i].Pos
		b.MinRA = math.Min(b.MinRA, p.RA)
		b.MinDec = math.Min(b.MinDec, p.Dec)
		b.MaxRA = math.Max(b.MaxRA, p.RA)
		b.MaxDec = math.Max(b.MaxDec, p.Dec)
	}
	return b.Expand(1e-3)
}

// accuracySummary scores the fitted catalog against ground truth, pairing
// entries by index. The |Δmag| mean divides by the number of pairs that
// actually contributed (both fluxes positive — magnitudes are undefined
// otherwise), not the number of position pairs: dividing by the larger
// count would bias the reported photometric error low whenever a flux
// collapsed to zero, which is exactly when the fit is worst.
func accuracySummary(truth, catalog []model.CatalogEntry, pixScale float64) string {
	var pos, mag float64
	var n, nMag int
	for i := range truth {
		if i >= len(catalog) {
			break
		}
		pos += geom.Dist(truth[i].Pos, catalog[i].Pos) / pixScale
		n++
		tf, ef := truth[i].Flux[model.RefBand], catalog[i].Flux[model.RefBand]
		if tf > 0 && ef > 0 {
			mag += math.Abs(2.5 * math.Log10(ef/tf))
			nMag++
		}
	}
	if n == 0 {
		return "vs truth: no overlapping entries to score"
	}
	s := fmt.Sprintf("vs truth: mean position error %.3f px", pos/float64(n))
	if nMag > 0 {
		s += fmt.Sprintf(", mean |Δmag| %.3f (%d of %d pairs with measurable flux)",
			mag/float64(nMag), nMag, n)
	} else {
		s += ", |Δmag| unavailable (no pair has both fluxes positive)"
	}
	return s
}

// spawnWorkers forks n copies of this binary in -worker mode against addr.
// Any extra arguments are appended to each worker's command line.
func spawnWorkers(addr string, n int, sky string, threads, patchThreads int, extra ...string) ([]*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmds := make([]*exec.Cmd, 0, n)
	for i := 0; i < n; i++ {
		args := []string{
			"-worker", addr,
			"-sky", sky,
			"-threads", strconv.Itoa(threads),
			"-patch-threads", strconv.Itoa(patchThreads)}
		args = append(args, extra...)
		cmd := exec.Command(exe, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		cmds = append(cmds, cmd)
	}
	return cmds, nil
}

// countDone tallies set bits of a completion bitmap.
func countDone(done []bool) int {
	n := 0
	for _, d := range done {
		if d {
			n++
		}
	}
	return n
}

// reassemble rebuilds a Survey value around frames loaded from disk,
// recovering the configuration geometry from the frames themselves.
func reassemble(images []*survey.Image, truth []model.CatalogEntry) *survey.Survey {
	sv := &survey.Survey{Images: images, Truth: truth}
	if len(images) > 0 {
		fp := images[0].Footprint()
		for _, im := range images[1:] {
			f := im.Footprint()
			fp.MinRA = math.Min(fp.MinRA, f.MinRA)
			fp.MinDec = math.Min(fp.MinDec, f.MinDec)
			fp.MaxRA = math.Max(fp.MaxRA, f.MaxRA)
			fp.MaxDec = math.Max(fp.MaxDec, f.MaxDec)
		}
		sv.Config.Region = fp
		sv.Config.PixScale = images[0].WCS.PixScale()
		sv.Config.FieldW = images[0].W
		sv.Config.FieldH = images[0].H
	}
	return sv
}

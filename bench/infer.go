package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
	"celeste/internal/survey"
)

// sky is one generated survey directory.
type sky struct {
	dir    string
	sv     *survey.Survey
	init   []model.CatalogEntry
	setupS float64 // generation + write wall, what cmd/skygen spends
	sha    string
	bytes  int64
}

// makeSky generates draw i of the workload's sky under seed and writes it
// where celeste reads it.
func makeSky(w *workload, e *env, seed uint64, draw int) (*sky, error) {
	s := &sky{dir: filepath.Join(e.work, fmt.Sprintf("%s-sky%d", w.Name, draw))}
	start := time.Now()
	s.sv, s.init = generateSky(*w.Sky, obsSeed(seed, draw))
	if err := imageio.WriteSurveyDir(s.dir, s.sv); err != nil {
		return nil, err
	}
	if err := imageio.WriteCatalog(filepath.Join(s.dir, "init.jsonl"), s.init); err != nil {
		return nil, err
	}
	s.setupS = time.Since(start).Seconds()
	var err error
	s.sha, s.bytes, err = dirFingerprint(s.dir)
	return s, err
}

// celesteArgs is the command line of one workload run.
func celesteArgs(w *workload, skyDir, out string, spawn int) []string {
	args := []string{"-sky", skyDir, "-out", out,
		"-procs", strconv.Itoa(w.Procs), "-threads", strconv.Itoa(w.Threads),
		"-patch-threads", strconv.Itoa(w.PatchThreads)}
	if spawn > 0 {
		args = append(args, "-spawn", strconv.Itoa(spawn),
			"-checkpoint", out+".celk", "-checkpoint-every", "4")
	}
	return args
}

// childRun is what the benchmark sees of one celeste process tree.
type childRun struct {
	wallS, cpuS, rssMB float64
	catalogSHA         string
	catalog            []model.CatalogEntry
}

// runCeleste runs the binary to completion and reads back its catalog. The
// wall clock covers the whole process: load, inference, catalog written.
func runCeleste(e *env, args []string, out string) (*childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.celeste, args...)
	// -spawn forks workers; on a timeout the whole group goes, not just the
	// coordinator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	var log bytes.Buffer
	cmd.Stdout, cmd.Stderr = &log, &log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- peakRSSMB(cmd.Process.Pid, exited) }()
	err := cmd.Wait()
	r := &childRun{wallS: time.Since(start).Seconds()}
	close(exited)
	r.rssMB = <-peak
	if err != nil {
		return nil, fmt.Errorf("celeste %v: %w\n%s", args, err, tail(log.String(), 2000))
	}
	// User+system time of the child and every descendant it waited for.
	r.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	raw, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	r.catalogSHA = hex.EncodeToString(sum[:])
	if r.catalog, err = imageio.DecodeCatalog(bytes.NewReader(raw)); err != nil {
		return nil, err
	}
	return r, nil
}

// peakRSSMB polls, until exited closes, the resident-set high-water mark
// (VmHWM) of every process in the group pgid leads, and returns the largest
// seen: the peak memory of the largest process of the tree. wait4's ru_maxrss
// would be simpler and wrong: across vfork and exec Linux folds the
// high-water mark of the parent's address space into the child's figure, so
// it reads no lower than this benchmark's own heap. VmHWM never falls, so the
// last poll misses only what the final tenth of a second added.
func peakRSSMB(pgid int, exited <-chan struct{}) (peakMB float64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		procs, _ := filepath.Glob("/proc/[0-9]*/stat")
		for _, stat := range procs {
			raw, err := os.ReadFile(stat)
			if err != nil {
				continue // gone since the glob
			}
			// "pid (comm) state ppid pgrp ...", and comm may hold anything.
			var state string
			var ppid, pgrp int
			if _, err := fmt.Sscan(string(raw[bytes.LastIndexByte(raw, ')')+1:]), &state, &ppid, &pgrp); err != nil || pgrp != pgid {
				continue
			}
			peakMB = max(peakMB, vmHWM(filepath.Dir(stat)))
		}
		select {
		case <-exited:
			return peakMB
		case <-tick.C:
		}
	}
}

// vmHWM reads the resident-set high-water mark, in MB, of the process whose
// /proc directory is given (0 if it cannot be read).
func vmHWM(procDir string) float64 {
	status, _ := os.ReadFile(filepath.Join(procDir, "status"))
	_, rest, _ := bytes.Cut(status, []byte("VmHWM:"))
	var kb float64
	fmt.Sscan(string(rest), &kb)
	return kb / 1024
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// accuracy scores a catalog against truth as cmd/celeste does: entries pair
// by index; |Δmag| averages over the pairs with both fluxes positive.
func accuracy(truth, catalog []model.CatalogEntry, pixScale float64) (posErrPx, magAbsErr float64) {
	var pos, mag float64
	var n, nMag int
	for i := range truth {
		if i >= len(catalog) {
			break
		}
		pos += geom.Dist(truth[i].Pos, catalog[i].Pos) / pixScale
		n++
		if tf, ef := truth[i].Flux[model.RefBand], catalog[i].Flux[model.RefBand]; tf > 0 && ef > 0 {
			mag += math.Abs(2.5 * math.Log10(ef/tf))
			nMag++
		}
	}
	return pos / math.Max(float64(n), 1), mag / math.Max(float64(nMag), 1)
}

// checkCatalog counts the sources of init that the catalog fails to deliver:
// missing, or with a flux or colour posterior standard deviation that is not
// positive. (The type probability may saturate at exactly 0 or 1, and its SD
// is then rightly 0. Non-finite fields cannot reach here: DecodeCatalog
// refuses the file.)
func checkCatalog(init, catalog []model.CatalogEntry) (failed int, why string) {
	byID := make(map[int]*model.CatalogEntry, len(catalog))
	for i := range catalog {
		byID[catalog[i].ID] = &catalog[i]
	}
	for i := range init {
		c, ok := byID[init[i].ID]
		switch {
		case !ok:
			why = fmt.Sprintf("source %d missing from the catalog", init[i].ID)
		case !allPositive(c.FluxSD[:]) || !allPositive(c.ColorSD[:]) || c.ProbGalSD < 0:
			why = fmt.Sprintf("source %d has a posterior SD that is not positive", c.ID)
		default:
			continue
		}
		failed++
	}
	return failed, why
}

func allPositive(v []float64) bool {
	for _, x := range v {
		if !(x > 0) {
			return false
		}
	}
	return true
}

// runInference is the end-to-end run of an inference workload: draws
// independent observations of the workload's sky, and catalogs each with a
// celeste process of its own. Every sample below is one draw.
func runInference(w *workload, e *env, seed uint64, seconds float64) (*workloadResult, error) {
	res := newResult(w.Name)
	var setup, wall, cpu, rss, posErr, magErr, rate, cpuPerOp []float64
	var shas []string
	sources := 0
	for d := 0; d < w.draws(seconds); d++ {
		s, err := makeSky(w, e, seed, d)
		if err != nil {
			return nil, err
		}
		shas = append(shas, s.sha)
		setup = append(setup, s.setupS)
		sources = len(s.init)
		res.Attempted += sources

		out := filepath.Join(e.work, fmt.Sprintf("%s-catalog%d.jsonl", w.Name, d))
		run, err := runCeleste(e, celesteArgs(w, s.dir, out, w.Spawn), out)
		if err != nil {
			// A run that dies delivers none of its sources.
			res.fail(sources, err.Error())
			continue
		}
		wall, cpu, rss = append(wall, run.wallS), append(cpu, run.cpuS), append(rss, run.rssMB)
		rate = append(rate, float64(sources)/run.wallS)
		cpuPerOp = append(cpuPerOp, 1000*run.cpuS/float64(sources))
		pe, me := accuracy(s.sv.Truth, run.catalog, s.sv.Config.PixScale)
		posErr, magErr = append(posErr, pe), append(magErr, me)
		res.CatalogSHA256 = append(res.CatalogSHA256, run.catalogSHA)
		if n, why := checkCatalog(s.init, run.catalog); n > 0 {
			res.fail(n, why)
		}

		if w.Spawn > 0 && d == 0 {
			// The byte-identity contract: the same bytes through the
			// in-process runtime, untimed.
			ref := filepath.Join(e.work, w.Name+"-reference.jsonl")
			refRun, err := runCeleste(e, celesteArgs(w, s.dir, ref, 0), ref)
			if err != nil {
				res.fail(sources, "in-process reference: "+err.Error())
			} else if refRun.catalogSHA != run.catalogSHA {
				res.fail(sources, fmt.Sprintf("-spawn %d catalog %s differs from the in-process catalog %s",
					w.Spawn, run.catalogSHA[:12], refRun.catalogSHA[:12]))
			}
		}
		os.RemoveAll(s.dir)
	}
	res.InputSHA256 = combineSHA(shas)
	if len(wall) == 0 {
		return res, nil // every draw failed; failed == attempted says so
	}

	res.EndToEnd["setup_s"] = summarize(setup)
	res.EndToEnd["ops_per_s"] = summarize(rate)
	res.EndToEnd["cpu_ms_per_op"] = summarize(cpuPerOp)
	res.EndToEnd["peak_rss_mb"] = summarize(rss)
	res.EndToEnd["catalog_wall_s"] = summarize(wall)
	res.EndToEnd["cpu_core_s"] = summarize(cpu)
	res.EndToEnd["pos_err_px"] = summarize(posErr)
	res.EndToEnd["mag_abs_err"] = summarize(magErr)
	return res, nil
}

func combineSHA(parts []string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

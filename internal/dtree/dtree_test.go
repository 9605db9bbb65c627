package dtree

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"celeste/internal/rng"
)

// runAll executes process for every task, with one goroutine per rank pulling
// from the scheduler until exhaustion. It returns when all tasks are done.
func runAll(s *Scheduler, process func(rank, task int)) {
	var wg sync.WaitGroup
	for r := 0; r < s.n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for {
				t, ok := s.Next(rank)
				if !ok {
					return
				}
				process(rank, t)
				s.Done(rank, t)
			}
		}(r)
	}
	wg.Wait()
}

func TestTopology(t *testing.T) {
	if Parent(0, 8) != -1 {
		t.Error("root parent should be -1")
	}
	// With fanout 2: children of 0 are 1,2; of 1 are 3,4.
	ch := Children(0, 2, 7)
	if len(ch) != 2 || ch[0] != 1 || ch[1] != 2 {
		t.Errorf("children(0) = %v", ch)
	}
	for _, c := range ch {
		if Parent(c, 2) != 0 {
			t.Errorf("parent(%d) = %d", c, Parent(c, 2))
		}
	}
	// Every rank's parent chain reaches the root.
	for r := 0; r < 100; r++ {
		steps := 0
		for p := r; p != 0; p = Parent(p, 8) {
			steps++
			if steps > 100 {
				t.Fatalf("rank %d never reaches root", r)
			}
		}
	}
	// Depth is logarithmic.
	if d := Depth(4096, 8); d != 4 {
		t.Errorf("depth(4096, 8) = %d, want 4", d)
	}
	if SubtreeSize(0, 8, 100) != 100 {
		t.Errorf("root subtree = %d", SubtreeSize(0, 8, 100))
	}
}

func TestSubtreeSizesPartition(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%500)
		fanout := 2 + int(seed%7)
		// Children subtrees plus self partition each subtree.
		var check func(r int) bool
		check = func(r int) bool {
			total := 1
			for _, c := range Children(r, fanout, n) {
				total += SubtreeSize(c, fanout, n)
				if !check(c) {
					return false
				}
			}
			return total == SubtreeSize(r, fanout, n)
		}
		return check(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEveryTaskScheduledExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ n, tasks int }{
		{1, 100}, {4, 1000}, {16, 557}, {64, 4096}, {100, 99},
	} {
		s := New(Config{}, tc.n, tc.tasks)
		var mu sync.Mutex
		seen := make(map[int]int)
		runAll(s, func(rank, task int) {
			mu.Lock()
			seen[task]++
			mu.Unlock()
		})
		if len(seen) != tc.tasks {
			t.Fatalf("n=%d tasks=%d: executed %d distinct tasks", tc.n, tc.tasks, len(seen))
		}
		for task, c := range seen {
			if c != 1 {
				t.Fatalf("task %d executed %d times", task, c)
			}
		}
	}
}

func TestLoadBalanceUniformTasks(t *testing.T) {
	// Under virtual-clock execution (true parallelism), uniform tasks must
	// spread almost evenly across ranks.
	n, tasks := 32, 3200
	s := New(Config{}, n, tasks)
	clock := make([]float64, n)
	done := make([]bool, n)
	active := n
	for active > 0 {
		best := -1
		for i := 0; i < n; i++ {
			if !done[i] && (best == -1 || clock[i] < clock[best]) {
				best = i
			}
		}
		if _, ok := s.Next(best); !ok {
			done[best] = true
			active--
			continue
		}
		clock[best]++
	}
	delivered, _ := s.Stats()
	for r, d := range delivered {
		if d < int64(tasks/n)*6/10 {
			t.Errorf("rank %d processed only %d tasks (fair share %d)", r, d, tasks/n)
		}
	}
}

func TestLoadBalanceSkewedDurations(t *testing.T) {
	// Heavy-tailed task costs under a deterministic virtual-clock execution
	// (each step advances the least-loaded rank, modeling true hardware
	// parallelism): dynamic distribution must keep the makespan spread far
	// below static round-robin's.
	n, tasks := 16, 2000
	r := rng.New(42)
	cost := make([]float64, tasks)
	for i := range cost {
		c := 1.0
		if r.Float64() < 0.05 {
			c = 50 // rare huge tasks
		}
		cost[i] = c
	}
	s := New(Config{FirstFrac: 0.3}, n, tasks)
	clock := make([]float64, n)
	done := make([]bool, n)
	active := n
	for active > 0 {
		// Non-done rank with the smallest virtual clock pulls next.
		best := -1
		for i := 0; i < n; i++ {
			if !done[i] && (best == -1 || clock[i] < clock[best]) {
				best = i
			}
		}
		task, ok := s.Next(best)
		if !ok {
			done[best] = true
			active--
			continue
		}
		clock[best] += cost[task]
	}
	var minC, maxC = clock[0], clock[0]
	var total float64
	for _, c := range clock {
		total += c
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	mean := total / float64(n)
	// The makespan should be within a couple of heavy tasks of the mean.
	if maxC > mean+2.5*50 {
		t.Errorf("makespan %v vs mean %v: dynamic balancing failed (clocks %v)",
			maxC, mean, clock)
	}
	// And far better than static blocks: static imbalance here exceeds
	// mean + several hundred.
	static := staticBlockMakespan(cost, n)
	if maxC >= static {
		t.Errorf("dtree makespan %v not better than static %v", maxC, static)
	}
}

// staticBlockMakespan computes the makespan if tasks were dealt in
// contiguous equal blocks with no dynamic redistribution.
func staticBlockMakespan(cost []float64, n int) float64 {
	per := (len(cost) + n - 1) / n
	var max float64
	for r := 0; r < n; r++ {
		var sum float64
		for i := r * per; i < (r+1)*per && i < len(cost); i++ {
			sum += cost[i]
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

func TestChunkSizePolicy(t *testing.T) {
	cfg := Config{}
	cfg.defaults()
	if ChunkSize(cfg, 0, 4, 64) != 0 {
		t.Error("chunk from empty pool must be 0")
	}
	if c := ChunkSize(cfg, 1000, 64, 64); c <= 0 || c > 1000 {
		t.Errorf("full-subtree chunk = %d", c)
	}
	// Bigger subtrees get bigger chunks.
	small := ChunkSize(cfg, 1000, 1, 64)
	big := ChunkSize(cfg, 1000, 32, 64)
	if big <= small {
		t.Errorf("chunk not monotone in subtree size: %d vs %d", small, big)
	}
	// Chunk never exceeds the pool.
	if c := ChunkSize(cfg, 3, 64, 64); c > 3 {
		t.Errorf("chunk %d exceeds remaining 3", c)
	}
}

func TestFirstAllocationDisjoint(t *testing.T) {
	cfg := Config{FirstFrac: 0.5}
	total, n := 10000, 37
	end := 0
	for r := 0; r < n; r++ {
		start, count := FirstAllocation(cfg, total, n, r)
		if start != end {
			t.Fatalf("rank %d starts at %d, want %d", r, start, end)
		}
		end = start + count
	}
	if ds := DynamicStart(cfg, total, n); ds != end {
		t.Fatalf("dynamic start %d != static end %d", ds, end)
	}
	if end > total {
		t.Fatalf("static allocation %d exceeds total %d", end, total)
	}
}

func TestMoreTasksThanRanksNotRequired(t *testing.T) {
	// Fewer tasks than ranks: everything must still complete.
	s := New(Config{}, 64, 10)
	var count int64
	runAll(s, func(rank, task int) { atomic.AddInt64(&count, 1) })
	if count != 10 {
		t.Errorf("executed %d of 10", count)
	}
}

func TestRequestsScaleReasonably(t *testing.T) {
	// The tree design bounds communication: requests per rank should be
	// modest compared to tasks processed.
	n, tasks := 64, 6400
	s := New(Config{}, n, tasks)
	runAll(s, func(rank, task int) {})
	delivered, requests := s.Stats()
	var d, q int64
	for r := range delivered {
		d += delivered[r]
		q += requests[r]
	}
	if d != int64(tasks) {
		t.Fatalf("delivered %d", d)
	}
	if q > int64(tasks) {
		t.Errorf("requests (%d) exceed tasks (%d); chunking is broken", q, tasks)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Config{}, 32, 10000)
		runAll(s, func(rank, task int) {})
	}
}

func TestFailRequeuesInflightAndPool(t *testing.T) {
	s := New(Config{FirstFrac: 0.5}, 4, 100)
	// Rank 3 takes a few tasks in flight, then dies without confirming.
	var taken []int
	for i := 0; i < 3; i++ {
		task, ok := s.Next(3)
		if !ok {
			t.Fatal("rank 3 starved")
		}
		taken = append(taken, task)
	}
	// Rank 3's static first allocation is int(0.5*100/4) = 12 tasks; 3 are
	// in flight, 9 still pooled — Fail reports both.
	requeued := s.Fail(3)
	if requeued != 12 {
		t.Fatalf("Fail requeued %d tasks, want 3 in flight + 9 pooled", requeued)
	}
	if _, ok := s.Next(3); ok {
		t.Fatal("dead rank was handed a task")
	}
	// Everything — including rank 3's in-flight tasks and its whole static
	// allocation — must be executed exactly once by the survivors.
	seen := make(map[int]int)
	for _, task := range taken {
		seen[task] = 0 // must reappear
	}
	for {
		progressed := false
		for r := 0; r < 3; r++ {
			if task, ok := s.Next(r); ok {
				seen[task]++
				s.Done(r, task)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if len(seen) != 100 {
		t.Fatalf("survivors executed %d distinct tasks, want all 100", len(seen))
	}
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %d executed %d times after requeue", task, c)
		}
	}
	if s.Requeued() != 12 {
		t.Errorf("Requeued() = %d, want 12", s.Requeued())
	}
}

func TestFailRootMovesDynamicPool(t *testing.T) {
	// Kill the root: its dynamic pool must be inherited and remain reachable
	// by every surviving rank, including ones whose only live ancestor was
	// the root.
	s := New(Config{Fanout: 2}, 7, 200)
	task, ok := s.Next(0)
	if !ok {
		t.Fatal("root got no task")
	}
	_ = task
	s.Fail(0)
	seen := make(map[int]bool)
	for {
		progressed := false
		for r := 1; r < 7; r++ {
			if task, ok := s.Next(r); ok {
				if seen[task] {
					t.Fatalf("task %d scheduled twice", task)
				}
				seen[task] = true
				s.Done(r, task)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if len(seen) != 200 {
		t.Fatalf("survivors executed %d of 200 tasks after root death", len(seen))
	}
}

func TestFailIsIdempotent(t *testing.T) {
	s := New(Config{}, 4, 40)
	s.Next(2)
	// Static allocation int(0.4*40/4) = 4: one in flight, three pooled.
	if n := s.Fail(2); n != 4 {
		t.Fatalf("first Fail requeued %d, want 4", n)
	}
	if n := s.Fail(2); n != 0 {
		t.Fatalf("second Fail requeued %d, want 0", n)
	}
}

func TestNewResumedSkipsDoneTasks(t *testing.T) {
	total := 60
	done := make([]bool, total)
	for i := 0; i < total; i += 2 {
		done[i] = true // every even task already completed
	}
	seen := make(map[int]bool)
	s2 := NewResumed(Config{}, 3, total, done)
	for {
		progressed := false
		for r := 0; r < 3; r++ {
			if task, ok := s2.Next(r); ok {
				if done[task] {
					t.Fatalf("completed task %d rescheduled", task)
				}
				if seen[task] {
					t.Fatalf("task %d scheduled twice", task)
				}
				seen[task] = true
				s2.Done(r, task)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if len(seen) != total/2 {
		t.Fatalf("scheduled %d tasks, want the %d unfinished ones", len(seen), total/2)
	}
}

func TestStealMovesWorkFromMostLoaded(t *testing.T) {
	// FirstFrac 1 deals everything statically (no dynamic pool), and rank 0 —
	// the joiner's whole ancestor chain — is drained into flight, so the
	// refill cascade finds nothing and the idle joiner must steal from a
	// sibling subtree.
	s := New(Config{FirstFrac: 1}, 4, 100)
	for i := 0; i < 25; i++ {
		if _, ok := s.Next(0); !ok {
			t.Fatal("rank 0 starved before its static pool drained")
		}
	}
	thief := s.Join()
	if thief != 4 {
		t.Fatalf("joiner got rank %d, want 4", thief)
	}
	if _, ok := s.Next(thief); ok {
		t.Fatal("joiner's empty pool produced a task via Next")
	}
	task, ok := s.Steal(thief)
	if !ok {
		t.Fatal("steal found no work though every static pool is full")
	}
	s.Done(thief, task)
	if s.Stolen() == 0 {
		t.Error("Stolen() did not count the moved tasks")
	}
	// Roughly half the victim's pool should have moved: the thief keeps
	// producing tasks from its own pool without further stealing.
	moved := s.Stolen()
	for i := int64(1); i < moved; i++ {
		tk, ok := s.Next(thief)
		if !ok {
			t.Fatalf("thief's pool dried up after %d of %d stolen tasks", i, moved)
		}
		s.Done(thief, tk)
	}
}

func TestStealNeverDuplicatesOrStrandsTasks(t *testing.T) {
	// Mixed Next/Steal draining across ranks, with a mid-run join and a
	// fail: every task must still execute exactly once.
	total := 200
	s := New(Config{FirstFrac: 0.8}, 4, total)
	seen := make(map[int]int)
	pull := func(rank int) bool {
		task, ok := s.Next(rank)
		if !ok {
			task, ok = s.Steal(rank)
		}
		if !ok {
			return false
		}
		seen[task]++
		s.Done(rank, task)
		return true
	}
	// A little progress, then churn: rank 2 dies holding a task, a new rank
	// joins with an empty pool.
	for i := 0; i < 10; i++ {
		pull(1)
	}
	if _, ok := s.Next(2); !ok {
		t.Fatal("rank 2 starved before its kill")
	}
	s.Fail(2) // dies with one task in flight
	joiner := s.Join()
	ranks := []int{0, 1, 3, joiner}
	for {
		progressed := false
		for _, r := range ranks {
			if pull(r) {
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	if len(seen) != total {
		t.Fatalf("executed %d distinct tasks, want %d", len(seen), total)
	}
	for task, c := range seen {
		if c != 1 {
			t.Fatalf("task %d executed %d times", task, c)
		}
	}
	delivered, _ := s.Stats()
	if delivered[joiner] == 0 {
		t.Error("joiner processed nothing despite steal")
	}
}

func TestStealRespectsDeadAndInflight(t *testing.T) {
	s := New(Config{FirstFrac: 1}, 2, 10)
	// Drain rank 0 fully into flight: 5 static tasks held, none pooled.
	for i := 0; i < 5; i++ {
		if _, ok := s.Next(0); !ok {
			t.Fatal("rank 0 starved")
		}
	}
	// Drain rank 1 the same way; now no pool anywhere.
	for i := 0; i < 5; i++ {
		if _, ok := s.Next(1); !ok {
			t.Fatal("rank 1 starved")
		}
	}
	thief := s.Join()
	if _, ok := s.Steal(thief); ok {
		t.Fatal("stole a task while everything is in flight")
	}
	// A dead rank cannot steal.
	s.Fail(thief)
	if _, ok := s.Steal(thief); ok {
		t.Fatal("dead rank stole a task")
	}
	// Out-of-range ranks are refused, not a panic.
	if _, ok := s.Steal(-1); ok {
		t.Fatal("negative rank stole a task")
	}
	if _, ok := s.Steal(99); ok {
		t.Fatal("unknown rank stole a task")
	}
}

// TestTotalDeathParksOrphansForJoiner: when the last live rank fails, its
// in-flight tasks and pool are parked, not dropped, and the next joiner
// inherits them — the scheduling half of the coordinator's rejoin grace,
// where a run whose whole fleet was transiently partitioned is rescued by the
// first worker to re-enroll.
func TestTotalDeathParksOrphansForJoiner(t *testing.T) {
	const total = 12
	s := New(Config{}, 2, total)
	// Pull one task per rank so both die with work in flight.
	t0, ok := s.Next(0)
	if !ok {
		t.Fatal("rank 0 got no task")
	}
	if _, ok := s.Next(1); !ok {
		t.Fatal("rank 1 got no task")
	}
	s.Done(0, t0)
	if n := s.Fail(0); n == 0 {
		t.Fatal("rank 0 died holding a pool but nothing requeued")
	}
	if n := s.Fail(1); n == 0 {
		t.Fatal("the last rank's death dropped its tasks instead of parking them")
	}

	// Everyone is dead: the orphaned work is unreachable but not lost.
	joiner := s.Join()
	seen := make(map[int]bool)
	for {
		task, ok := s.Steal(joiner)
		if !ok {
			if task, ok = s.Next(joiner); !ok {
				break
			}
		}
		if seen[task] {
			t.Fatalf("task %d handed out twice", task)
		}
		seen[task] = true
		s.Done(joiner, task)
	}
	if len(seen) != total-1 {
		t.Fatalf("joiner finished %d tasks, want %d (all but the one confirmed Done)", len(seen), total-1)
	}
	if seen[t0] {
		t.Fatalf("confirmed task %d was requeued", t0)
	}
}

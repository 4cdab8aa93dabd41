package serve

import (
	"bytes"
	"fmt"
	"time"

	"wisp/internal/hashes"
)

// Batched RSA dispatch.  Every OpRSADecrypt task on a shard targets the
// same gateway key, so a drained same-op group is exactly the
// shared-modulus workload the lockstep engine (rsakey.DecryptBatch)
// fuses: k ciphertexts advance through one interleaved Montgomery window
// schedule instead of k sequential scans.  serveBatch upgrades groups of
// ≥2 here; anything that cannot be served fused (expired deadlines,
// engine errors, a lone survivor) falls back to the scalar serveOne path
// so per-task outcomes stay attributable.

// serveRSABatch serves an OpRSADecrypt group through the batched engine,
// chunking it to the configured BatchWidth so the fused kernel stays in
// the lane range the hardware model prices.  With a gather window
// configured, a narrow group first waits briefly for more decrypts —
// the fusion opportunity otherwise vanishes whenever request
// interarrival tracks the service time (a single-CPU host hands each
// request straight to the idle worker, so the queue never holds two).
func (s *shard) serveRSABatch(group []*task) {
	var leftover []*task
	width := s.g.BatchWidth()
	if g := s.g.BatchGatherUS(); g > 0 && len(group) < width {
		group, leftover = s.gatherRSA(group, width, time.Duration(g)*time.Microsecond)
	}
	if len(group) < 2 {
		for _, t := range group {
			s.g.metrics.rsaScalar.Add(1)
			s.serveOne(t, len(group))
		}
	} else {
		for off := 0; off < len(group); off += width {
			s.serveRSAChunk(group[off:min(off+width, len(group))])
		}
	}
	if len(leftover) > 0 {
		// Ops of other classes dequeued while gathering; serveBatch
		// re-groups them (they cannot re-enter this path, so the
		// recursion is one level deep).
		s.serveBatch(leftover)
	}
}

// gatherRSA tops an under-width decrypt group up from the shard queue,
// waiting at most window for stragglers.  Non-decrypt tasks dequeued
// along the way are returned for immediate serving.  A drain aborts the
// wait immediately: admission is closed, so no straggler can arrive and
// sitting out the window would only stretch shutdown by one gather
// deadline per queued under-width group.
func (s *shard) gatherRSA(group []*task, width int, window time.Duration) (rsa, other []*task) {
	rsa = group
	timer := time.NewTimer(window)
	defer timer.Stop()
	for len(rsa) < width {
		select {
		case t := <-s.queue:
			s.g.metrics.queueDepth[s.id].Add(-1)
			if t.req.Op == OpRSADecrypt {
				rsa = append(rsa, t)
			} else {
				other = append(other, t)
			}
		case <-s.g.drainStart:
			return rsa, other
		case <-timer.C:
			return rsa, other
		}
	}
	return rsa, other
}

// serveRSAChunk triages one ≤BatchWidth chunk — expired tasks answer
// immediately, exactly as serveOne would — and runs the survivors
// through one batched engine call.  A chunk that shrinks below two live
// tasks, or a batch-level engine failure, downgrades to scalar serving.
func (s *shard) serveRSAChunk(chunk []*task) {
	now := time.Now()
	live := chunk[:0:0]
	for _, t := range chunk {
		if !t.deadline.IsZero() && now.After(t.deadline) {
			queueUS := now.Sub(t.enqueued).Microseconds()
			resp := &Response{ID: t.req.ID, Op: t.req.Op, Shard: s.id, Batch: len(chunk), QueueUS: queueUS, Stolen: t.stolen}
			resp.Status = StatusExpired
			resp.Error = fmt.Sprintf("deadline exceeded after %dµs in queue", queueUS)
			t.owner.cost.Add(-t.estUS)
			t.resp <- resp
			continue
		}
		live = append(live, t)
	}
	if len(live) < 2 {
		for _, t := range live {
			s.g.metrics.rsaScalar.Add(1)
			s.serveOne(t, len(chunk))
		}
		return
	}
	if err := s.runRSABatch(live); err != nil {
		// Batch-level failure: reserve per-task error attribution for the
		// scalar path, which re-runs each op independently.
		for _, t := range live {
			s.g.metrics.rsaScalar.Add(1)
			s.serveOne(t, len(chunk))
		}
	}
}

// runRSABatch runs k live decrypt tasks through one PadDecryptBatch
// call and answers each, splitting the fused service time evenly across
// lanes so QoS accounting and pacing see per-op costs.  A non-nil error
// means NO task was answered and the caller must serve them scalar.
func (s *shard) runRSABatch(live []*task) error {
	start := time.Now()
	k := len(live)
	digests := make([][]byte, k)
	cts := make([][]byte, k)
	for i, t := range live {
		digest := hashes.MD5Sum(t.req.Payload)
		digests[i] = digest[:]
		wrapped, err := s.env.engine.PadEncrypt(s.rng, &s.g.key.PublicKey, digests[i])
		if err != nil {
			return err
		}
		cts[i] = wrapped
	}
	got, err := s.env.engine.PadDecryptBatch(s.g.key, cts)
	if err != nil {
		return err
	}
	s.g.metrics.rsaBatch.Observe(float64(k))
	s.g.metrics.rsaBatched.Add(uint64(k))

	// One pacing sleep covers the whole batch: the simulated platform
	// still pays k sequential op costs, it just overlaps them better in
	// the fused kernel, so the wall target is k ops at the optimized rate.
	if hz := s.g.cfg.PaceHz; hz > 0 {
		target := time.Duration(float64(k) * DefaultOptCosts.RSADecrypt / hz * 1e9)
		if elapsed := time.Since(start); elapsed < target {
			time.Sleep(target - elapsed)
		}
	}
	perUS := time.Since(start).Microseconds() / int64(k)
	for i, t := range live {
		queueUS := start.Sub(t.enqueued).Microseconds()
		resp := &Response{ID: t.req.ID, Op: t.req.Op, Shard: s.id, Batch: k, QueueUS: queueUS, Stolen: t.stolen}
		resp.Digest = append(resp.Digest[:0], digests[i]...)
		if !bytes.Equal(got[i], digests[i]) {
			resp.Status = StatusError
			resp.Error = "rsa round trip corrupted digest"
		} else {
			resp.Status = StatusOK
			resp.Result = cts[i]
			resp.EstBaseCycles = DefaultBaseCosts.RSADecrypt
			resp.EstOptCycles = DefaultOptCosts.RSADecrypt
		}
		resp.ServiceUS = perUS
		s.observeService(t.req.Op, float64(resp.ServiceUS), len(t.req.Payload))
		t.owner.cost.Add(-t.estUS)
		t.resp <- resp
	}
	return nil
}

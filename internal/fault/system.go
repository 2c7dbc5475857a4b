package fault

import (
	"time"

	"nztm/internal/tm"
	"nztm/internal/trace"
)

// System is a tm.System decorated with TM-layer fault injection: every
// transactional Read/Update may be followed by an injected latency spike, a
// mid-transaction stall (ownership is already held when the thread sleeps),
// or a forced abort of the attempt. The wrapped system's own retry loop,
// contention management, and statistics run unchanged underneath.
type System struct {
	inner tm.System
	p     *Plane
}

// WrapSystem decorates sys with the plane's TM-layer faults. When the plane
// is disabled, sys is returned unwrapped.
func (p *Plane) WrapSystem(sys tm.System) tm.System {
	if !p.Enabled() {
		return sys
	}
	return &System{inner: sys, p: p}
}

// Name implements tm.System.
func (s *System) Name() string { return s.inner.Name() + "+fault" }

// NewObject implements tm.System.
func (s *System) NewObject(initial tm.Data) tm.Object { return s.inner.NewObject(initial) }

// Stats implements tm.System.
func (s *System) Stats() *tm.Stats { return s.inner.Stats() }

// Atomic implements tm.System: fn runs under a fault-injecting Tx wrapper,
// and the call is scored as survived (FaultedCommits) or not
// (FaultedFailures) if any fault was injected into it.
func (s *System) Atomic(th *tm.Thread, fn func(tm.Tx) error) error {
	st := s.p.threadStream(th.ID)
	faulted := false
	err := s.inner.Atomic(th, func(tx tm.Tx) error {
		return fn(&faultTx{inner: tx, p: s.p, st: st, th: th, faulted: &faulted})
	})
	if faulted {
		if err == nil {
			s.p.FaultedCommits.Add(1)
		} else {
			s.p.FaultedFailures.Add(1)
		}
	}
	return err
}

var _ tm.System = (*System)(nil)

// faultTx interposes on every transactional operation. Injection happens
// after the underlying open so stalls and aborts land while the
// transaction holds its reads/ownerships — the adversarial case the
// paper's nonblocking protocol exists for.
type faultTx struct {
	inner   tm.Tx
	p       *Plane
	st      *stream
	th      *tm.Thread // injected faults land in this thread's flight ring
	faulted *bool
}

// Read implements tm.Tx.
func (t *faultTx) Read(o tm.Object) tm.Data {
	d := t.inner.Read(o)
	t.inject()
	return d
}

// Update implements tm.Tx.
func (t *faultTx) Update(o tm.Object, fn func(tm.Data)) {
	t.inner.Update(o, fn)
	t.inject()
}

// Release implements tm.Releaser when the inner transaction does.
func (t *faultTx) Release(o tm.Object) {
	if r, ok := t.inner.(tm.Releaser); ok {
		r.Release(o)
	}
}

func (t *faultTx) inject() {
	cfg := &t.p.cfg
	if t.st.hit(cfg.DelayProb) {
		*t.faulted = true
		t.p.Delays.Add(1)
		t.th.Trace(trace.KindFaultDelay, 0, uint64(cfg.Delay), 0)
		time.Sleep(cfg.Delay)
	}
	if t.st.hit(cfg.StallProb) {
		*t.faulted = true
		t.p.Stalls.Add(1)
		t.th.Trace(trace.KindFaultStall, 0, uint64(cfg.Stall), 0)
		time.Sleep(cfg.Stall)
	}
	if t.st.hit(cfg.AbortProb) {
		*t.faulted = true
		t.p.Aborts.Add(1)
		t.th.Trace(trace.KindFaultAbort, 0, 0, 0)
		tm.Retry(tm.AbortRequest)
	}
}

// Env is a tm.Env decorated with injected wait-loop latency: Spin may eat a
// Delay-sized sleep, modelling a thread that loses its core mid-wait.
type Env struct {
	tm.Env
	p  *Plane
	st *stream
}

// WrapEnv decorates env with the plane's spin-latency faults, drawing from
// the stream of tm thread id. The wrapped env must only be used by the
// thread context that owns that id.
func (p *Plane) WrapEnv(env tm.Env, id int) tm.Env {
	if !p.Enabled() {
		return env
	}
	return &Env{Env: env, p: p, st: p.threadStream(id)}
}

// WrapThread rebinds one thread context's Env to a fault-wrapped one. The
// thread shares streams with WrapSystem injection for the same ID, which is
// safe because a thread context is only ever driven by one goroutine at a
// time. With registry-minted threads this is the per-connection hook
// (server.Config.WrapThread); note that a recycled slot ID resumes its
// predecessor's deterministic stream, which keeps runs reproducible.
func (p *Plane) WrapThread(th *tm.Thread) {
	if !p.Enabled() {
		return
	}
	th.Env = p.WrapEnv(th.Env, th.ID)
}

// WrapThreads rebinds every thread context's Env to a fault-wrapped one.
func (p *Plane) WrapThreads(threads []*tm.Thread) {
	for _, th := range threads {
		p.WrapThread(th)
	}
}

// Spin implements tm.Env.
func (e *Env) Spin() {
	if e.st.hit(e.p.cfg.DelayProb) {
		e.p.Delays.Add(1)
		time.Sleep(e.p.cfg.Delay)
	}
	e.Env.Spin()
}

var _ tm.Env = (*Env)(nil)

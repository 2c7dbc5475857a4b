package tmtest

import (
	"sync"
	"testing"

	"nztm/internal/tm"
)

// RunChurn executes the registry-churn conformance test: goroutines
// continuously acquire registry slots, transact, and release the slots
// again, so every slot ID is recycled through many tenants while other
// tenants are mid-transaction. This is the dynamic-thread contract the
// static Config.Threads world never exercised — a recycled slot inherits
// its predecessor's reader-table entries and owner words, and those must
// not cross-talk with the new tenant.
// Run it under -race: the suite deliberately overcommits goroutines beyond
// the slot capacity so Acquire blocking and slot handoff stay hot.
//
// The factory is built with threads = the registry's capacity, so systems
// with fixed per-thread tables (DSTM) size them to cover every slot.
func RunChurn(t *testing.T, f Factory) {
	t.Helper()
	t.Run("CounterConservation", func(t *testing.T) { churnCounter(t, f) })
	t.Run("BankInvariant", func(t *testing.T) { churnBank(t, f) })
}

// newChurnSystem builds a registry-backed system: the registry shares the
// system's world so registry-minted threads allocate from it.
func newChurnSystem(f Factory, slots int) (tm.System, *tm.Registry) {
	world := tm.NewRealWorld()
	reg := tm.NewRegistryWorld(slots, world)
	return f(world, reg.Max()), reg
}

// churnCounter: every tenancy increments a shared counter a few times; the
// final count proves no increment was lost or duplicated across slot
// recycling (a stale descriptor writing through a recycled slot would break
// conservation).
func churnCounter(t *testing.T, f Factory) {
	const slots, goroutines, tenancies, perTenancy = 6, 16, 25, 6
	s, reg := newChurnSystem(f, slots)
	o := s.NewObject(tm.NewInts(1))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < tenancies; r++ {
				th := reg.NewThread()
				for i := 0; i < perTenancy; i++ {
					if err := s.Atomic(th, func(tx tm.Tx) error {
						tx.Update(o, func(d tm.Data) { d.(*tm.Ints).V[0]++ })
						return nil
					}); err != nil {
						t.Error(err)
						break
					}
				}
				th.Close()
			}
		}()
	}
	wg.Wait()
	th := reg.NewThread()
	defer th.Close()
	if got, want := read0(t, s, th, o), int64(goroutines*tenancies*perTenancy); got != want {
		t.Errorf("%s: counter = %d, want %d (lost or duplicated under slot churn)", s.Name(), got, want)
	}
	if reg.Active() != 1 {
		t.Errorf("registry active = %d after churn, want 1 (the checker)", reg.Active())
	}
	if h := reg.High(); h > slots {
		t.Errorf("high-water %d beyond capacity %d", h, slots)
	}
}

// churnBank: transfers and full-sum audits race across recycled slots; every
// audit — including audits by brand-new tenants of freshly recycled slots —
// must see the conserved total.
func churnBank(t *testing.T, f Factory) {
	const slots, goroutines, tenancies, accounts, initial = 6, 12, 20, 8, 1000
	s, reg := newChurnSystem(f, slots)
	objs := make([]tm.Object, accounts)
	for i := range objs {
		d := tm.NewInts(1)
		d.V[0] = initial
		objs[i] = s.NewObject(d)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < tenancies; r++ {
				th := reg.NewThread()
				if (id+r)%3 == 0 {
					var sum int64
					if err := s.Atomic(th, func(tx tm.Tx) error {
						sum = 0
						for _, o := range objs {
							sum += tx.Read(o).(*tm.Ints).V[0]
						}
						return nil
					}); err != nil {
						t.Error(err)
					} else if sum != accounts*initial {
						t.Errorf("%s: audit total %d, want %d", s.Name(), sum, accounts*initial)
					}
				} else {
					from := (id + r) % accounts
					to := (id + 3*r + 1) % accounts
					if from != to {
						amt := int64(r%9 + 1)
						if err := s.Atomic(th, func(tx tm.Tx) error {
							tx.Update(objs[from], func(d tm.Data) { d.(*tm.Ints).V[0] -= amt })
							tx.Update(objs[to], func(d tm.Data) { d.(*tm.Ints).V[0] += amt })
							return nil
						}); err != nil {
							t.Error(err)
						}
					}
				}
				th.Close()
			}
		}(g)
	}
	wg.Wait()
	th := reg.NewThread()
	defer th.Close()
	var total int64
	for _, o := range objs {
		total += read0(t, s, th, o)
	}
	if total != accounts*initial {
		t.Errorf("%s: total = %d, want %d", s.Name(), total, accounts*initial)
	}
}

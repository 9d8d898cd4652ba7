package budget

import (
	"errors"
	"sync"
	"testing"
)

// TestQueryMeterMatchesStandalone pins the tenancy invariant: a query meter
// admitted through a tenant reports exactly what a standalone NewMeter(m)
// would — tenancy adds admission control, never cost — and settling it
// charges the tenant exactly that spending, one charge-size sample per
// nonzero phase, and releases the reservation.
func TestQueryMeterMatchesStandalone(t *testing.T) {
	r := NewRegistry()
	tn := r.Tenant("acme", 100)
	qm, err := tn.Admit(8)
	if err != nil {
		t.Fatal(err)
	}
	sm := NewMeter(8)
	for _, c := range []struct {
		p Phase
		n int
	}{{PhaseCandidateGen, 8}, {PhaseTopK, 5}, {PhaseTopK, 3}} {
		if err := qm.Charge(c.p, c.n); err != nil {
			t.Fatal(err)
		}
		if err := sm.Charge(c.p, c.n); err != nil {
			t.Fatal(err)
		}
	}
	if qm.Report() != sm.Report() {
		t.Fatalf("tenant query report %v differs from standalone %v", qm.Report(), sm.Report())
	}
	if got := tn.Report().Total(); got != 0 {
		t.Fatalf("tenant charged %d before the query settled, want 0", got)
	}
	cgBefore, tkBefore := tn.hist[PhaseCandidateGen].Snapshot(), tn.hist[PhaseTopK].Snapshot()
	tn.Settle(qm)
	if got, want := tn.Report(), (Report{Limit: 100, CandidateGen: 8, TopK: 8}); got != want {
		t.Fatalf("tenant report after settling = %+v, want %+v", got, want)
	}
	if tn.reserved != 0 {
		t.Fatalf("settled tenant still reserves %d", tn.reserved)
	}
	cg := tn.hist[PhaseCandidateGen].Snapshot().Sub(cgBefore)
	tk := tn.hist[PhaseTopK].Snapshot().Sub(tkBefore)
	if cg.Count != 1 || cg.Sum != 8 || tk.Count != 1 || tk.Sum != 8 {
		t.Errorf("tenant charge samples = %d/%d and %d/%d, want one sample of 8 per phase",
			cg.Count, cg.Sum, tk.Count, tk.Sum)
	}
}

// TestTenantAdmissionRejectsAtomically pins the reservation contract: Admit
// succeeds only when the query's whole 2m fits in limit − reserved − spent,
// a refused Admit reserves and spends nothing, and Settle releases what the
// query did not spend.
func TestTenantAdmissionRejectsAtomically(t *testing.T) {
	r := NewRegistry()
	tn := r.Tenant("small", 10)
	q1, err := tn.Admit(5) // reserves all 10
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Admit(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("admit past the reservation: got %v, want ErrExhausted", err)
	}
	if tn.reserved != 10 || tn.Report().Total() != 0 {
		t.Fatalf("refused admit changed the tenant: reserved %d, spent %d", tn.reserved, tn.Report().Total())
	}
	if err := q1.Charge(PhaseCandidateGen, 3); err != nil {
		t.Fatal(err)
	}
	if err := q1.Charge(PhaseTopK, 2); err != nil {
		t.Fatal(err)
	}
	tn.Settle(q1) // spent 5, nothing reserved: 5 free
	if tn.reserved != 0 || tn.Report() != (Report{Limit: 10, CandidateGen: 3, TopK: 2}) {
		t.Fatalf("after settling: reserved %d, report %+v", tn.reserved, tn.Report())
	}
	// 2m = 6 exceeds the 5 free SSSPs even if the query would spend less.
	if _, err := tn.Admit(3); !errors.Is(err, ErrExhausted) {
		t.Fatalf("admit of 6 with 5 free: got %v, want ErrExhausted", err)
	}
	q2, err := tn.Admit(2)
	if err != nil {
		t.Fatalf("admit of 4 with 5 free: %v", err)
	}
	tn.Settle(q2)
	if tn.reserved != 0 || tn.Report().Total() != 5 {
		t.Fatalf("an unspent query changed the tenant: reserved %d, spent %d", tn.reserved, tn.Report().Total())
	}
	if _, err := tn.Admit(-1); err == nil || tn.reserved != 0 {
		t.Fatalf("negative m: got %v, reserved %d", err, tn.reserved)
	}

	// An Unlimited tenant reserves up to the largest int without
	// overflowing, then refuses the next query.
	free := r.Tenant("free", 0)
	big, err := free.Admit(Unlimited / 2)
	if err != nil {
		t.Fatalf("unlimited tenant refused m = Unlimited/2: %v", err)
	}
	if _, err := free.Admit(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("unlimited tenant with 1 SSSP free: got %v, want ErrExhausted", err)
	}
	free.Settle(big)
	if q, err := free.Admit(Unlimited / 2); err != nil {
		t.Fatalf("unlimited tenant after settling: %v", err)
	} else {
		free.Settle(q)
	}
}

// TestTenantsChargeIndependently pins the multi-tenant isolation claim:
// concurrent queries from different tenants each charge their own tenant
// exactly what they spent, as if run alone.
func TestTenantsChargeIndependently(t *testing.T) {
	r := NewRegistry()
	a := r.Tenant("a", 0)
	b := r.Tenant("b", 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		tn := a
		if i%2 == 1 {
			tn = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			qm, err := tn.Admit(4)
			if err != nil {
				t.Error(err)
				return
			}
			defer tn.Settle(qm)
			if err := qm.Charge(PhaseCandidateGen, 4); err != nil {
				t.Error(err)
			}
			if err := qm.Charge(PhaseTopK, 4); err != nil {
				t.Error(err)
			}
			if qm.Report().Total() != 8 {
				t.Errorf("query spent %d, want 8", qm.Report().Total())
			}
		}()
	}
	wg.Wait()
	if a.Report().Total() != 32 || b.Report().Total() != 32 {
		t.Fatalf("tenant totals %d/%d, want 32/32", a.Report().Total(), b.Report().Total())
	}
	if a.reserved != 0 || b.reserved != 0 {
		t.Fatalf("settled tenants still reserve %d/%d", a.reserved, b.reserved)
	}
	reports := r.Reports()
	if len(reports) != 2 || reports["a"].Total() != 32 || reports["b"].Total() != 32 {
		t.Fatalf("registry reports wrong: %v", reports)
	}
}

// TestRegistryGetOrCreate pins registry semantics: first limit wins, Get
// never creates, unlimited default for non-positive limits.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Get("ghost"); ok {
		t.Fatalf("Get created a tenant")
	}
	tn := r.Tenant("x", 50)
	if again := r.Tenant("x", 9999); again != tn {
		t.Fatalf("second Tenant call returned a different tenant")
	}
	if tn.Limit() != 50 || tn.Report().Limit != 50 {
		t.Fatalf("first limit did not win: %d", tn.Limit())
	}
	if r.Tenant("free", 0).Limit() != Unlimited {
		t.Fatalf("non-positive limit is not Unlimited")
	}
	names := r.Names()
	if len(names) != 2 {
		t.Fatalf("names = %v, want 2 entries", names)
	}
	if tn.Name() != "x" {
		t.Fatalf("tenant name = %q", tn.Name())
	}
}

// FuzzTenant runs random sequential Admit, Charge and Settle steps against
// one tenant (a zero limit is Unlimited). After every step spending plus
// reservations stay within the limit; Admit fails exactly when 2m exceeds
// the free allowance, and a failed Admit changes nothing; and once every
// query is settled nothing is reserved and the tenant's spending per phase
// is the sum of its settled meters' reports.
func FuzzTenant(f *testing.F) {
	f.Add(uint8(30), []byte{0, 10, 0, 1, 0, 41, 0, 10, 0, 2, 0, 0, 0, 10, 0})
	f.Add(uint8(0), []byte{0, 200, 0, 1, 0, 255, 2, 0, 0})
	f.Add(uint8(7), []byte{0, 3, 0, 0, 2, 0, 1, 0, 6, 1, 1, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, limit uint8, steps []byte) {
		tn := NewRegistry().Tenant("fuzz", int(limit))
		var open []*Meter
		var settled Report
		settle := func(j int) {
			rep := open[j].Report()
			settled.CandidateGen += rep.CandidateGen
			settled.TopK += rep.TopK
			tn.Settle(open[j])
			open = append(open[:j], open[j+1:]...)
		}
		for i := 0; i+2 < len(steps); i += 3 {
			a, b := int(steps[i+1]), int(steps[i+2])
			switch steps[i] % 3 {
			case 0:
				before, reserved := tn.Report(), tn.reserved
				free := tn.limit - reserved - before.Total()
				q, err := tn.Admit(a)
				if (err != nil) != (2*a > free) {
					t.Fatalf("Admit(%d) with %d free: err = %v", a, free, err)
				}
				if err != nil {
					if !errors.Is(err, ErrExhausted) {
						t.Fatalf("Admit(%d): %v, want ErrExhausted", a, err)
					}
					if tn.Report() != before || tn.reserved != reserved {
						t.Fatalf("failed Admit(%d) changed the tenant", a)
					}
					continue
				}
				if q.Limit() != 2*a || q.Report().Total() != 0 {
					t.Fatalf("Admit(%d) returned limit %d, spent %d", a, q.Limit(), q.Report().Total())
				}
				open = append(open, q)
			case 1:
				if len(open) > 0 {
					_ = open[a%len(open)].Charge(Phase(b&1), b>>1)
				}
			case 2:
				if len(open) > 0 {
					settle(a % len(open))
				}
			}
			if spent := tn.Report().Total(); tn.reserved < 0 || spent > tn.limit-tn.reserved {
				t.Fatalf("spent %d + reserved %d exceed limit %d", spent, tn.reserved, tn.limit)
			}
		}
		for len(open) > 0 {
			settle(0)
		}
		if tn.reserved != 0 {
			t.Fatalf("every query settled, %d still reserved", tn.reserved)
		}
		if rep := tn.Report(); rep.CandidateGen != settled.CandidateGen || rep.TopK != settled.TopK {
			t.Fatalf("tenant spent %+v, settled meters spent %+v", rep, settled)
		}
	})
}

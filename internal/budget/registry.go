package budget

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Multi-tenant admission control. A Registry holds one Tenant per name.
// A query runs only once its tenant has reserved its whole 2m budget
// (Admit), so a refused query spends nothing and no admitted query can
// fail part-way because of its tenant; it charges a plain NewMeter(m), so
// its Report matches a one-shot run bit for bit, and Settle charges the
// tenant what that meter spent. Each query charges its own meter, so
// concurrent queries on one cached session never share cost.

// Tenant is one admission-controlled principal: an operator-set SSSP
// allowance, the SSSPs its running queries reserved, its spending per phase
// across settled queries, and tenant-labeled charge-size histograms. Tenant
// is safe for concurrent use.
type Tenant struct {
	name  string
	limit int
	hist  [numPhases]*obs.Histogram

	mu       sync.Mutex
	reserved int
	spent    [numPhases]int
}

// Name returns the tenant identifier.
func (t *Tenant) Name() string { return t.name }

// Limit returns the tenant's SSSP allowance (Unlimited when none was set).
func (t *Tenant) Limit() int { return t.limit }

// Report returns the tenant's cumulative spending across its settled
// queries. Reserved SSSPs are not spending.
func (t *Tenant) Report() Report {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Report{Limit: t.limit, CandidateGen: t.spent[PhaseCandidateGen], TopK: t.spent[PhaseTopK]}
}

// Admit reserves a query's whole budget of m candidates (2m SSSPs) against
// the tenant's free allowance, limit − reserved − spent, and returns the
// query's NewMeter(m). If 2m exceeds the free allowance it returns
// ErrExhausted, reserving and spending nothing. Every admitted meter must be
// passed to Settle exactly once when its query ends.
func (t *Tenant) Admit(m int) (*Meter, error) {
	if m < 0 {
		return nil, fmt.Errorf("budget: negative endpoint budget m=%d", m)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Subtracting keeps an Unlimited tenant from overflowing; m > free/2 is
	// 2m > free without computing 2m.
	free := t.limit - t.reserved - t.spent[PhaseCandidateGen] - t.spent[PhaseTopK]
	if m > free/2 {
		return nil, fmt.Errorf("%w: tenant %s has %d of %d SSSPs free, fewer than 2m for m=%d",
			ErrExhausted, t.name, free, t.limit, m)
	}
	q := NewMeter(m)
	t.reserved += q.limit
	return q, nil
}

// Settle ends an admitted query: the tenant is charged what q spent in
// each phase, and the rest of q's reservation is released. Each nonzero
// phase is one sample of the tenant's budget.charge_sssp series.
func (t *Tenant) Settle(q *Meter) {
	rep := q.Report()
	t.mu.Lock()
	t.reserved -= rep.Limit
	t.spent[PhaseCandidateGen] += rep.CandidateGen
	t.spent[PhaseTopK] += rep.TopK
	t.mu.Unlock()
	for p, n := range [numPhases]int{rep.CandidateGen, rep.TopK} {
		if n > 0 {
			t.hist[p].Observe(int64(n))
		}
	}
}

// Registry is the set of known tenants. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
}

// NewRegistry creates an empty tenant registry.
func NewRegistry() *Registry {
	return &Registry{tenants: make(map[string]*Tenant)}
}

// Tenant returns the named tenant, creating it with the given SSSP allowance
// on first use (limit <= 0 means Unlimited). The limit of an existing tenant
// is not changed by later calls.
func (r *Registry) Tenant(name string, limit int) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t
	}
	if limit <= 0 {
		limit = Unlimited
	}
	t := &Tenant{name: name, limit: limit}
	for p := Phase(0); p < numPhases; p++ {
		// The obs registry is last-wins, so re-registering a returning
		// tenant's series (a registry restarted, a name reused) is safe: the
		// new instruments take over the exposition slot.
		t.hist[p] = obs.NewHistogram("budget.charge_sssp",
			obs.L("phase", p.String()), obs.L("tenant", name))
	}
	r.tenants[name] = t
	return t
}

// Get returns the named tenant without creating it.
func (r *Registry) Get(name string) (*Tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Names returns the registered tenant names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Reports returns every tenant's cumulative report, keyed by name.
func (r *Registry) Reports() map[string]Report {
	r.mu.Lock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	out := make(map[string]Report, len(tenants))
	for _, t := range tenants {
		out[t.name] = t.Report()
	}
	return out
}

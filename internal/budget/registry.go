package budget

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Multi-tenant admission control. A Registry holds one admission Meter per
// tenant; every served query charges a per-query child meter (the paper's 2m
// budget, so its Report matches a one-shot run bit for bit) chained to the
// tenant's meter (the operator-set allowance across queries). Tenants are
// charged independently: a charge unit is a distance row *produced for a
// caller*, and each caller charges its own chain, so concurrent queries on
// one cached session never share cost.

// Tenant is one admission-controlled principal: a named meter with an
// operator-set SSSP allowance, plus tenant-labeled charge-size histograms.
type Tenant struct {
	name  string
	meter *Meter
}

// Name returns the tenant identifier.
func (t *Tenant) Name() string { return t.name }

// Meter returns the tenant's admission meter. Charging it directly is
// unusual; queries should charge a QueryMeter child so per-query reports
// stay comparable to one-shot runs.
func (t *Tenant) Meter() *Meter { return t.meter }

// Report returns the tenant's cumulative spending across all its queries.
func (t *Tenant) Report() Report { return t.meter.Report() }

// QueryMeter returns a fresh per-query meter for the paper's standard budget
// (m candidates = 2m SSSPs), chained to the tenant's admission meter: every
// charge must clear both limits or it spends nothing anywhere. The child's
// Report is bit-identical to a standalone NewMeter(m) run — tenancy adds
// admission, never cost.
func (t *Tenant) QueryMeter(m int) *Meter {
	return &Meter{limit: 2 * m, parent: t.meter}
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
	t := &Tenant{
		name: name,
		meter: &Meter{
			limit: limit,
			hist:  tenantChargeHist(name),
		},
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

// tenantChargeHist builds the tenant-labeled charge-size series. The obs
// registry is last-wins, so re-registering a returning tenant's series (a
// registry restarted, a name reused) is safe: the new instruments take over
// the exposition slot.
func tenantChargeHist(name string) *[numPhases]*obs.Histogram {
	var h [numPhases]*obs.Histogram
	for p := Phase(0); p < numPhases; p++ {
		h[p] = obs.NewHistogram("budget.charge_sssp",
			obs.L("phase", p.String()), obs.L("tenant", name))
	}
	return &h
}

// ErrUnknownTenant reports a query naming a tenant the registry has not
// seen. Serve layers map it to a client error.
var ErrUnknownTenant = fmt.Errorf("budget: unknown tenant")

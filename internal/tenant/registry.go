package tenant

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/tieredmem/mtat/internal/telemetry"
)

// Authentication errors surfaced by Registry.Authenticate; the HTTP
// middleware maps both to 401.
var (
	ErrNoToken  = errors.New("tenant: missing bearer token")
	ErrBadToken = errors.New("tenant: unknown token")
)

// Rejection reasons carried by QuotaError and the
// tenant_rejected_total{reason} label.
const (
	ReasonAuth       = "auth"
	ReasonRate       = "rate"
	ReasonQueued     = "queued"
	ReasonSweepCells = "sweep_cells"
	ReasonCost       = "cost"
)

// DefaultRetryAfter is the Retry-After hint for quota (non-rate)
// rejections, where no token-accrual time exists to compute one.
const DefaultRetryAfter = 5 * time.Second

// QuotaError reports an admission rejection. API layers map it to
// 429 with a Retry-After header.
type QuotaError struct {
	Tenant     string
	Reason     string
	Detail     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota (%s): %s", e.Tenant, e.Reason, e.Detail)
}

// RetryAfterSeconds renders d as a Retry-After header value: whole
// seconds, rounded up, minimum 1.
func RetryAfterSeconds(d time.Duration) string {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", s)
}

// Usage is the wire shape of one tenant's declared policy plus live
// accounting, served by GET /api/v1/tenants.
type Usage struct {
	Name           string  `json:"name"`
	Class          Class   `json:"class"`
	Weight         float64 `json:"weight"`
	Admin          bool    `json:"admin,omitempty"`
	Quota          Quota   `json:"quota"`
	Queued         int     `json:"queued"`
	Active         int     `json:"active"`
	PendingSeconds float64 `json:"pending_cost_s"`
	Runs           int64   `json:"runs_total"`
	Cells          int64   `json:"cells_total"`
	Rejected       int64   `json:"rejected_total"`
}

// Tenant is one identity's live state: declared spec, rate bucket, and
// work accounting. Pointers remain valid across Reload — a reload
// updates the spec in place so in-flight runs keep their accounting.
type Tenant struct {
	mu       sync.Mutex
	spec     Spec
	bkt      *bucket
	queued   int
	active   int
	pending  float64 // estimated seconds queued+active
	runs     int64
	cells    int64
	rejected int64

	reg   *Registry
	mRuns *telemetry.Counter
	mCell *telemetry.Counter
	hWait *telemetry.Histogram
}

func (t *Tenant) Name() string { return t.spec.Name }

// NameOf renders a tenant for journal records, statuses, and bus
// events: "" for nil and for the anonymous tenant, so single-tenant
// deployments produce records byte-identical to pre-tenancy builds.
func NameOf(t *Tenant) string {
	if t == nil || t.Name() == AnonymousName {
		return ""
	}
	return t.Name()
}

func (t *Tenant) Class() Class {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Class
}

func (t *Tenant) Weight() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Weight
}

func (t *Tenant) IsAdmin() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Admin
}

// AdmitRequest describes one submission for admission control.
type AdmitRequest struct {
	// Units is the number of work items (1 for a run, the cell count
	// for a sweep).
	Units int
	// CostSeconds is the cost-model estimate charged against
	// Quota.MaxPendingSeconds.
	CostSeconds float64
	// Sweep marks a fleet sweep, enabling the MaxSweepCells check and
	// cell metering.
	Sweep bool
}

// Admit runs admission control for one submission: token-bucket rate
// limit, queued-units quota, per-sweep cell cap, and the pending-cost
// budget. On success the tenant's queued/pending accounting is charged
// atomically; on failure a *QuotaError (with Retry-After) is returned
// and the rejection is metered.
func (t *Tenant) Admit(req AdmitRequest) error {
	if req.Units < 1 {
		req.Units = 1
	}
	if ok, wait := t.bkt.take(time.Now()); !ok {
		return t.reject(&QuotaError{
			Tenant: t.Name(), Reason: ReasonRate,
			Detail:     "submission rate limit exceeded",
			RetryAfter: wait,
		})
	}
	t.mu.Lock()
	q := t.spec.Quota
	if req.Sweep && q.MaxSweepCells > 0 && req.Units > q.MaxSweepCells {
		detail := fmt.Sprintf("sweep has %d cells, quota allows %d", req.Units, q.MaxSweepCells)
		t.mu.Unlock()
		return t.reject(&QuotaError{
			Tenant: t.Name(), Reason: ReasonSweepCells,
			Detail: detail, RetryAfter: DefaultRetryAfter,
		})
	}
	if q.MaxQueued > 0 && t.queued+req.Units > q.MaxQueued {
		detail := fmt.Sprintf("%d queued + %d new exceeds max_queued %d", t.queued, req.Units, q.MaxQueued)
		t.mu.Unlock()
		return t.reject(&QuotaError{
			Tenant: t.Name(), Reason: ReasonQueued,
			Detail: detail, RetryAfter: DefaultRetryAfter,
		})
	}
	if q.MaxPendingSeconds > 0 && t.pending+req.CostSeconds > q.MaxPendingSeconds {
		detail := fmt.Sprintf("estimated %.1fs + pending %.1fs exceeds budget %.1fs",
			req.CostSeconds, t.pending, q.MaxPendingSeconds)
		t.mu.Unlock()
		return t.reject(&QuotaError{
			Tenant: t.Name(), Reason: ReasonCost,
			Detail: detail, RetryAfter: DefaultRetryAfter,
		})
	}
	t.queued += req.Units
	t.pending += req.CostSeconds
	if req.Sweep {
		t.cells += int64(req.Units)
		t.mCell.Add(int64(req.Units))
	} else {
		t.runs += int64(req.Units)
		t.mRuns.Add(int64(req.Units))
	}
	t.mu.Unlock()
	return nil
}

func (t *Tenant) reject(qe *QuotaError) error {
	t.mu.Lock()
	t.rejected++
	t.mu.Unlock()
	t.reg.meterRejection(t.Name(), qe.Reason)
	return qe
}

// Restore re-charges accounting for work recovered from the journal,
// bypassing quota checks — it was admitted by a previous incarnation.
// The recovered units still count toward this incarnation's run/cell
// meters (counters are process-local, so without this a post-crash
// scrape would under-report the work the daemon is actually doing).
func (t *Tenant) Restore(units int, cost float64, sweep bool) {
	t.mu.Lock()
	t.queued += units
	t.pending += cost
	if sweep {
		t.cells += int64(units)
		t.mCell.Add(int64(units))
	} else {
		t.runs += int64(units)
		t.mRuns.Add(int64(units))
	}
	t.mu.Unlock()
}

// CanStart reports whether the tenant may begin one more work item
// under Quota.MaxActive. The fair queue consults this to hold a
// tenant's runs back without rejecting them.
func (t *Tenant) CanStart() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spec.Quota.MaxActive <= 0 || t.active < t.spec.Quota.MaxActive
}

// NoteStarted moves units from queued to active.
func (t *Tenant) NoteStarted(units int) {
	t.mu.Lock()
	t.queued -= units
	t.active += units
	t.clampLocked()
	t.mu.Unlock()
}

// NoteDone retires active units and refunds their estimated cost.
func (t *Tenant) NoteDone(units int, cost float64) {
	t.mu.Lock()
	t.active -= units
	t.pending -= cost
	t.clampLocked()
	t.mu.Unlock()
}

// NoteAbandoned retires units that never started (cancelled while
// queued) and refunds their estimated cost.
func (t *Tenant) NoteAbandoned(units int, cost float64) {
	t.mu.Lock()
	t.queued -= units
	t.pending -= cost
	t.clampLocked()
	t.mu.Unlock()
}

func (t *Tenant) clampLocked() {
	if t.queued < 0 {
		t.queued = 0
	}
	if t.active < 0 {
		t.active = 0
	}
	if t.pending < 1e-9 {
		t.pending = 0
	}
}

// ObserveQueueWait records one work item's submit→dispatch latency in
// tenant_queue_wait_seconds{tenant}.
func (t *Tenant) ObserveQueueWait(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	t.hWait.Observe(seconds)
}

// Usage snapshots the tenant's declared policy and live accounting.
func (t *Tenant) Usage() Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Usage{
		Name:           t.spec.Name,
		Class:          t.spec.Class,
		Weight:         t.spec.Weight,
		Admin:          t.spec.Admin,
		Quota:          t.spec.Quota,
		Queued:         t.queued,
		Active:         t.active,
		PendingSeconds: t.pending,
		Runs:           t.runs,
		Cells:          t.cells,
		Rejected:       t.rejected,
	}
}

// update swaps the declared spec in place (hot reload), preserving all
// accounting. The rate bucket is rebuilt only when its parameters
// changed so steady reloads don't refill bursts.
func (t *Tenant) update(s Spec) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.spec
	t.spec = s
	if old.Quota.RatePerSec != s.Quota.RatePerSec || old.Quota.Burst != s.Quota.Burst {
		t.bkt = newBucket(s.Quota.RatePerSec, s.Quota.Burst)
	}
}

// Registry resolves tokens and names to tenants and owns the shared
// admission cost model. A registry built from a nil Config is
// permissive: every request maps to the built-in anonymous admin
// tenant with unlimited quota, which keeps daemons started without
// -tenants behaving exactly as before.
type Registry struct {
	tel  *telemetry.Telemetry
	cost CostModel

	mu         sync.RWMutex
	permissive bool
	allowAnon  bool
	anon       *Tenant
	byName     map[string]*Tenant
	byToken    map[string]*Tenant
	generation int
}

// New builds a registry. cfg == nil selects permissive single-tenant
// mode; otherwise cfg must validate.
func New(cfg *Config, tel *telemetry.Telemetry) (*Registry, error) {
	r := &Registry{
		tel:     tel,
		byName:  make(map[string]*Tenant),
		byToken: make(map[string]*Tenant),
	}
	if cfg == nil {
		r.permissive = true
		r.anon = r.newTenant(Spec{
			Name:   AnonymousName,
			Class:  ClassLC,
			Weight: 1,
			Admin:  true,
		})
		return r, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r.anon = r.newTenant(Spec{Name: AnonymousName, Class: ClassLC, Weight: 1})
	r.applyLocked(*cfg)
	return r, nil
}

// Permissive mirrors New's behavior for the common "no -tenants flag"
// path; it never fails.
func Permissive(tel *telemetry.Telemetry) *Registry {
	r, _ := New(nil, tel)
	return r
}

func (r *Registry) newTenant(s Spec) *Tenant {
	s = s.normalized()
	reg := r.tel.Metrics()
	return &Tenant{
		spec:  s,
		bkt:   newBucket(s.Quota.RatePerSec, s.Quota.Burst),
		reg:   r,
		mRuns: reg.Counter(telemetry.SeriesName(telemetry.MetricTenantRuns, "tenant", s.Name)),
		mCell: reg.Counter(telemetry.SeriesName(telemetry.MetricTenantCells, "tenant", s.Name)),
		hWait: reg.Histogram(telemetry.SeriesName(telemetry.MetricTenantQueueWait, "tenant", s.Name)),
	}
}

func (r *Registry) meterRejection(name, reason string) {
	r.tel.Metrics().Counter(telemetry.SeriesName(
		telemetry.MetricTenantRejected, "tenant", name, "reason", reason)).Inc()
}

// MeterAuthFailure counts a 401 in tenant_rejected_total so bad-token
// storms are visible without granting them a tenant identity.
func (r *Registry) MeterAuthFailure() {
	r.meterRejection("unknown", ReasonAuth)
}

// applyLocked installs cfg, reusing existing *Tenant pointers by name
// so accounting survives reloads. Callers hold r.mu (or have exclusive
// access during New).
func (r *Registry) applyLocked(cfg Config) {
	byName := make(map[string]*Tenant, len(cfg.Tenants))
	byToken := make(map[string]*Tenant, len(cfg.Tenants))
	for _, s := range cfg.Tenants {
		s = s.normalized()
		t := r.byName[s.Name]
		if t == nil {
			t = r.newTenant(s)
		} else {
			t.update(s)
		}
		byName[s.Name] = t
		byToken[s.Token] = t
	}
	r.byName = byName
	r.byToken = byToken
	r.allowAnon = cfg.AllowAnonymous
	r.permissive = false
	r.generation++
}

// Reload validates and hot-swaps the tenant set. Tenants removed from
// the config lose authentication immediately; their in-flight work
// keeps its (now orphaned but still consistent) accounting object.
func (r *Registry) Reload(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applyLocked(cfg)
	return nil
}

// Generation counts config applications (1 after New with a config).
func (r *Registry) Generation() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.generation
}

// Permissive reports whether the registry is in no-config mode.
func (r *Registry) IsPermissive() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.permissive
}

// Authenticate maps a bearer token to a tenant. An empty token is the
// anonymous tenant when allowed (permissive mode or AllowAnonymous),
// ErrNoToken otherwise; an unknown token is ErrBadToken.
func (r *Registry) Authenticate(token string) (*Tenant, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if token == "" {
		if r.permissive || r.allowAnon {
			return r.anon, nil
		}
		return nil, ErrNoToken
	}
	if t, ok := r.byToken[token]; ok {
		return t, nil
	}
	if r.permissive {
		// No config loaded: any presented token maps to anonymous so
		// tokenized clients work against permissive daemons.
		return r.anon, nil
	}
	return nil, ErrBadToken
}

// Anonymous returns the built-in tenant used for unauthenticated and
// library-level (in-process) submissions.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// Resolve returns the named tenant, or nil if unknown. The anonymous
// name always resolves.
func (r *Registry) Resolve(name string) *Tenant {
	if name == "" || name == AnonymousName {
		return r.anon
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byName[name]
}

// Attribution resolves name for accounting purposes, creating an
// unlimited metering-only BE tenant when the name is unknown. Used for
// journal replay (the tenant may have left the config) and admin
// on-behalf-of attribution (fleet dispatching cells to nodes that
// don't share the fleet's tenant file).
func (r *Registry) Attribution(name string) *Tenant {
	if name == "" || name == AnonymousName {
		return r.anon
	}
	if validateName(name) != nil {
		return r.anon
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.byName[name]; ok {
		return t
	}
	t := r.newTenant(Spec{Name: name, Class: ClassBE, Weight: 1})
	r.byName[name] = t
	return t
}

// Cost returns the daemon-wide admission cost model.
func (r *Registry) Cost() *CostModel { return &r.cost }

// Count returns the number of configured (named) tenants — 0 in
// permissive mode; attribution-only tenants are included once created.
func (r *Registry) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
}

// List snapshots every tenant's usage, named tenants sorted by name
// and the anonymous tenant last.
func (r *Registry) List() []Usage {
	r.mu.RLock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	tenants := make([]*Tenant, 0, len(names)+1)
	sort.Strings(names)
	for _, n := range names {
		tenants = append(tenants, r.byName[n])
	}
	anon := r.anon
	r.mu.RUnlock()
	out := make([]Usage, 0, len(tenants)+1)
	for _, t := range tenants {
		out = append(out, t.Usage())
	}
	out = append(out, anon.Usage())
	return out
}

// ReloadResult is the response body of POST /api/v1/config/tenants.
type ReloadResult struct {
	Tenants    int `json:"tenants"`
	Generation int `json:"generation"`
}

// context plumbing: the HTTP middleware stores the authenticated
// tenant; managers pull it back out at submission time.

type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the tenant carried by ctx, or nil.
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/loadgen"
	"github.com/tieredmem/mtat/internal/rl"
	"github.com/tieredmem/mtat/internal/telemetry"
)

// perturbLeaves changes every scalar leaf reachable from v (through
// structs and slice elements) one at a time, calls check with the leaf's
// path while the change is in place, and restores the leaf.
func perturbLeaves(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbLeaves(v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
		return
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(v.Index(i), path+"[]", check)
		}
		return
	}
	old := reflect.ValueOf(v.Interface())
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		panic("perturbLeaves: unhandled kind " + v.Kind().String() + " at " + path)
	}
	check(path)
	v.Set(old)
}

// nudgedLoad is Pattern with its load raised at the instant at and its
// Duration extended by extend.
type nudgedLoad struct {
	loadgen.Pattern
	at, extend float64
}

func (n nudgedLoad) Frac(t float64) float64 {
	if t == n.at {
		return n.Pattern.Frac(t) + 0.01
	}
	return n.Pattern.Frac(t)
}

func (n nudgedLoad) Duration() float64 { return n.Pattern.Duration() + n.extend }

// keyedScenarioFields are the Scenario fields the training key covers
// directly; Load is keyed by its signature and Telemetry not at all.
var keyedScenarioFields = map[string]bool{
	"Mem": true, "LC": true, "HasLC": true, "LCInitialTier": true, "BEs": true,
	"TickSeconds": true, "DurationSeconds": true, "WarmupSeconds": true,
	"SettleSeconds": true, "SampleRate": true, "Seed": true, "ReferenceCore": true,
}

// TestPolicyCacheKeyProperties checks the training key: changing any
// training input misses the cache, and changing only what NewPolicy's
// training ignores (the run's load, length, tick and telemetry) hits it.
func TestPolicyCacheKeyProperties(t *testing.T) {
	scn := testScenario(t, 1)
	cfg, err := MTATConfigFor(scn)
	if err != nil {
		t.Fatal(err)
	}
	trainScn := mtatTrainingScenario(scn)
	base := newTrainingKey(core.VariantFull, cfg, trainScn, 3)
	mustMiss := func(what string, k trainingKey) {
		t.Helper()
		if k == base {
			t.Errorf("changing %s keeps the training key", what)
		}
	}

	perturbLeaves(reflect.ValueOf(&cfg).Elem(), "PPMConfig", func(path string) {
		mustMiss(path, newTrainingKey(core.VariantFull, cfg, trainScn, 3))
	})
	st := reflect.TypeOf(trainScn)
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		switch {
		case keyedScenarioFields[name]:
			perturbLeaves(reflect.ValueOf(&trainScn).Elem().Field(i), "Scenario."+name, func(path string) {
				mustMiss(path, newTrainingKey(core.VariantFull, cfg, trainScn, 3))
			})
		case name != "Load" && name != "Telemetry":
			t.Errorf("Scenario.%s is neither keyed nor exempt: decide whether training reads it", name)
		}
	}
	fewerBEs := trainScn
	fewerBEs.BEs = trainScn.BEs[:1]
	mustMiss("the BE set", newTrainingKey(core.VariantFull, cfg, fewerBEs, 3))
	mustMiss("the variant", newTrainingKey(core.VariantLCOnly, cfg, trainScn, 3))
	mustMiss("the episodes", newTrainingKey(core.VariantFull, cfg, trainScn, 4))
	other := trainScn
	other.Load = nudgedLoad{Pattern: trainScn.Load, at: 100.25}
	mustMiss("the load at one training tick", newTrainingKey(core.VariantFull, cfg, other, 3))
	// With the run length pinned, the pattern's Duration still counts.
	other.DurationSeconds = trainScn.Load.Duration()
	other.Load = trainScn.Load
	if newTrainingKey(core.VariantFull, cfg, other, 3) != base {
		t.Error("pinning DurationSeconds to its default changes the training key")
	}
	other.Load = nudgedLoad{Pattern: trainScn.Load, at: -1, extend: 1}
	mustMiss("the load's Duration", newTrainingKey(core.VariantFull, cfg, other, 3))

	// Fields only the run reads keep NewPolicy's key.
	constant, err := loadgen.NewConstant(0.5, 30)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Scenario){
		"Load":            func(s *Scenario) { s.Load = constant },
		"DurationSeconds": func(s *Scenario) { s.DurationSeconds = 30 },
		"TickSeconds":     func(s *Scenario) { s.TickSeconds = 0.05 },
		"Telemetry":       func(s *Scenario) { s.Telemetry = telemetry.New() },
	} {
		run := scn
		mut(&run)
		runCfg, err := MTATConfigFor(run)
		if err != nil {
			t.Fatal(err)
		}
		if newTrainingKey(core.VariantFull, runCfg, mtatTrainingScenario(run), 3) != base {
			t.Errorf("the run's %s changes NewPolicy's training key", name)
		}
	}
}

// TestNewPolicyCancelledWhenCached: a cancelled ctx fails NewPolicy even
// when the agent it asks for is already cached.
func TestNewPolicyCancelledWhenCached(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an agent")
	}
	scn := testScenario(t, 31)
	if _, err := NewPolicy(context.Background(), "mtat-lconly", scn, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hits, _ := PolicyCacheStats()
	if _, err := NewPolicy(ctx, "mtat-lconly", scn, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled NewPolicy on a cached key returned %v, want context.Canceled", err)
	}
	if h, _ := PolicyCacheStats(); h != hits {
		t.Error("a cancelled call was served from the cache")
	}
}

// TestPolicyCacheLRU: a full cache evicts the entry least recently
// inserted or hit, re-inserting a cached key evicts nothing, and the
// cache never grows past its capacity.
func TestPolicyCacheLRU(t *testing.T) {
	c := newPolicyCache()
	key := func(i int) trainingKey { return trainingKey{byte(i), byte(i >> 8), 1} }
	for i := 0; i < policyCacheCapacity; i++ {
		c.insert(key(i), rl.Weights{})
	}
	if _, ok := c.lookup(key(0)); !ok {
		t.Fatal("key 0 missing from a cache filled to capacity")
	}
	c.insert(key(policyCacheCapacity), rl.Weights{})
	if len(c.entries) != policyCacheCapacity {
		t.Fatalf("cache holds %d entries, want %d", len(c.entries), policyCacheCapacity)
	}
	if _, ok := c.entries[key(1)]; ok {
		t.Error("key 1, the least recently used, survived the insert past capacity")
	}
	for _, i := range []int{0, 2, policyCacheCapacity} {
		if _, ok := c.entries[key(i)]; !ok {
			t.Errorf("key %d was evicted; only key 1 should be", i)
		}
	}
	c.insert(key(2), rl.Weights{})
	if len(c.entries) != policyCacheCapacity {
		t.Errorf("re-inserting a cached key left %d entries, want %d", len(c.entries), policyCacheCapacity)
	}
	if _, ok := c.entries[key(3)]; !ok {
		t.Error("re-inserting a cached key evicted another entry")
	}
	if c.hits != 1 || c.misses != 0 {
		t.Errorf("hits=%d misses=%d, want 1 and 0", c.hits, c.misses)
	}
}

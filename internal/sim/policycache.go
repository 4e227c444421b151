package sim

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"github.com/tieredmem/mtat/internal/core"
	"github.com/tieredmem/mtat/internal/rl"
)

// policyCacheCapacity bounds the trained-policy cache. An entry holds one
// SAC agent's five networks, about 180 KB of float64 weights at the
// default 64-unit hidden layers, so a full cache is about 6 MB.
const policyCacheCapacity = 32

// policyCacheVersion is folded into every training key. Bump it whenever
// a change to the training path (the tick loop, the workloads, PP-M, SAC)
// makes the agent trained on the same inputs come out different.
const policyCacheVersion = "mtat-trained-policy/1"

// trainingKey is the SHA-256 of everything a training run reads.
type trainingKey [sha256.Size]byte

// policyCache is the process-wide trained-policy cache behind
// TrainedMTAT: an LRU of agent weights by training key.
type policyCache struct {
	mu      sync.Mutex
	entries map[trainingKey]*policyEntry
	clock   uint64
	hits    uint64
	misses  uint64
}

type policyEntry struct {
	weights rl.Weights
	used    uint64 // clock at the last insert or hit, for LRU eviction
}

var trainedPolicies = newPolicyCache()

func newPolicyCache() *policyCache {
	return &policyCache{entries: make(map[trainingKey]*policyEntry)}
}

// PolicyCacheStats reports the trained-policy cache's accounting since
// process start: calls served from a cached agent, and calls that found
// no agent and trained.
func PolicyCacheStats() (hits, misses uint64) {
	c := trainedPolicies
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// TrainedMTAT returns a frozen, evaluation-mode MTAT agent of the variant,
// trained with cfg on trainScn for the given number of episodes (see
// PretrainMTATContext). trained reports whether this call ran the
// training.
//
// Agents are cached process-wide by a digest of everything training reads
// (the variant, cfg, episodes, and trainScn's geometry, workloads, seed,
// timing, core and load, but not its Telemetry, which training never
// writes to), so a second call with the same inputs skips training and
// returns a new agent holding identical weights. Concurrent first calls
// with one key each train and cache the same weights. A failed training
// is never cached. A cancelled ctx fails the call even when the agent is
// cached.
func TrainedMTAT(ctx context.Context, variant core.Variant, cfg core.PPMConfig,
	trainScn Scenario, episodes int,
) (m *core.MTAT, trained bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = ctx.Err(); err != nil {
		return nil, false, err
	}
	if episodes <= 0 {
		return nil, false, fmt.Errorf("sim: episodes must be > 0, got %d", episodes)
	}
	trainScn.Telemetry = nil // training must not pollute a run's trace
	if err = trainScn.withDefaults().Validate(); err != nil {
		return nil, false, fmt.Errorf("sim: training scenario: %w", err)
	}
	key := newTrainingKey(variant, cfg, trainScn, episodes)
	if m, err = core.New(variant, cfg); err != nil {
		return nil, false, err
	}
	if weights, ok := trainedPolicies.lookup(key); ok {
		if err = m.PPM().Agent().SetWeights(weights); err != nil {
			return nil, false, err
		}
		m.SetEvalMode(true)
		m.ResetEpisode()
		return m, false, nil
	}
	if err = PretrainMTATContext(ctx, m, trainScn, episodes); err != nil {
		return nil, false, err
	}
	trainedPolicies.insert(key, m.PPM().Agent().Weights())
	return m, true, nil
}

// lookup returns the weights cached under key and marks them used, or
// reports a miss.
func (c *policyCache) lookup(key trainingKey) (rl.Weights, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return rl.Weights{}, false
	}
	c.clock++
	e.used = c.clock
	c.hits++
	return e.weights, true
}

// insert caches weights under key, evicting the least recently used
// entry when key is new and the cache is full.
func (c *policyCache) insert(key trainingKey, weights rl.Weights) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok && len(c.entries) >= policyCacheCapacity {
		var oldest trainingKey
		oldestUsed := uint64(math.MaxUint64)
		for k, e := range c.entries {
			if e.used < oldestUsed {
				oldest, oldestUsed = k, e.used
			}
		}
		delete(c.entries, oldest)
	}
	c.clock++
	c.entries[key] = &policyEntry{weights: weights, used: c.clock}
}

// newTrainingKey digests everything training variant with cfg on scn for
// episodes reads. Structs are written in Go syntax (%#v), whose floats
// are the shortest form that parses back to the same bits. The load
// pattern is keyed by its signature, its Duration and its Frac at every
// training tick, which is exactly what the tick loop reads of it.
func newTrainingKey(variant core.Variant, cfg core.PPMConfig, scn Scenario, episodes int) trainingKey {
	s := scn.withDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00variant=%d episodes=%d\x00%#v\x00", policyCacheVersion, variant, episodes, cfg)
	fmt.Fprintf(h, "%#v\x00lc=%t %#v\x00tier=%d\x00%#v\x00", s.Mem, s.HasLC, s.LC, s.LCInitialTier, s.BEs)
	fmt.Fprintf(h, "seed=%d sample=%v warmup=%v settle=%v tick=%v duration=%v reference=%t\x00",
		s.Seed, s.SampleRate, s.WarmupSeconds, s.SettleSeconds, s.TickSeconds,
		s.DurationSeconds, s.ReferenceCore)
	if s.Load != nil {
		ticks := int(math.Round(s.DurationSeconds / s.TickSeconds))
		buf := make([]byte, 0, 8*(ticks+1))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Load.Duration()))
		for i := 0; i < ticks; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Load.Frac(float64(i)*s.TickSeconds)))
		}
		h.Write(buf)
	}
	var k trainingKey
	h.Sum(k[:0])
	return k
}

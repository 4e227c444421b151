package rl

import (
	"encoding/json"
	"fmt"

	"github.com/tieredmem/mtat/internal/nn"
)

// Weights is a SAC agent's learnable state: the actor, the twin critics,
// their targets, and the entropy temperature. It is also the agent's JSON
// form. Replay contents and optimizer moments are not part of it: an agent
// restored from Weights is meant for evaluation or continued training from
// fresh optimizer state.
type Weights struct {
	Actor    *nn.MLP `json:"actor"`
	Q1       *nn.MLP `json:"q1"`
	Q2       *nn.MLP `json:"q2"`
	Q1Target *nn.MLP `json:"q1_target"`
	Q2Target *nn.MLP `json:"q2_target"`
	LogAlpha float64 `json:"log_alpha"`
}

// Weights returns a deep copy of the agent's learnable state; later
// training does not change it.
func (s *SAC) Weights() Weights {
	return Weights{
		Actor:    s.actor.Clone(),
		Q1:       s.q1.Clone(),
		Q2:       s.q2.Clone(),
		Q1Target: s.q1t.Clone(),
		Q2Target: s.q2t.Clone(),
		LogAlpha: s.logAlpha,
	}
}

// SetWeights copies w's parameters into the agent; w itself is only
// read. The agent's configuration (and therefore network architecture)
// must match.
func (s *SAC) SetWeights(w Weights) error {
	if w.Actor == nil || w.Q1 == nil || w.Q2 == nil || w.Q1Target == nil || w.Q2Target == nil {
		return fmt.Errorf("rl: load weights: missing networks")
	}
	if err := s.actor.CopyFrom(w.Actor); err != nil {
		return fmt.Errorf("rl: load actor: %w", err)
	}
	if err := s.q1.CopyFrom(w.Q1); err != nil {
		return fmt.Errorf("rl: load q1: %w", err)
	}
	if err := s.q2.CopyFrom(w.Q2); err != nil {
		return fmt.Errorf("rl: load q2: %w", err)
	}
	if err := s.q1t.CopyFrom(w.Q1Target); err != nil {
		return fmt.Errorf("rl: load q1 target: %w", err)
	}
	if err := s.q2t.CopyFrom(w.Q2Target); err != nil {
		return fmt.Errorf("rl: load q2 target: %w", err)
	}
	s.logAlpha = w.LogAlpha
	return nil
}

// MarshalJSON implements json.Marshaler.
func (s *SAC) MarshalJSON() ([]byte, error) {
	return json.Marshal(Weights{
		Actor:    s.actor,
		Q1:       s.q1,
		Q2:       s.q2,
		Q1Target: s.q1t,
		Q2Target: s.q2t,
		LogAlpha: s.logAlpha,
	})
}

// LoadWeights restores network parameters and temperature from data
// produced by MarshalJSON. The agent's configuration (and therefore
// network architecture) must match.
func (s *SAC) LoadWeights(data []byte) error {
	var w Weights
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("rl: load weights: %w", err)
	}
	return s.SetWeights(w)
}

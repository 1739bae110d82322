// Package task implements the application model of the paper's §3: a
// periodic task is a serial chain of subtasks connected by messages,
// Ti = [st1,m1, st2,m2, …, stn,mn]; subtasks may be replicated at run time
// so the replicas split the period's data stream (item 6), and the replica
// set PS(st) is ordered so the most recently added replica is shut down
// first (Figure 6).
package task

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/sim"
)

// DemandFunc yields the ground-truth CPU demand for processing `items`
// data items. rng, when non-nil, supplies measurement noise.
type DemandFunc func(items int, rng *rand.Rand) sim.Time

// SubtaskSpec describes one executable program in the chain.
type SubtaskSpec struct {
	Name string
	// Replicable marks the subtask as eligible for run-time replication
	// (Table 1: two of the five subtasks are replicable).
	Replicable bool
	// Demand is the subtask's ground-truth CPU cost.
	Demand DemandFunc
	// OutBytesPerItem sizes the message the subtask sends to its
	// successor; zero for the final subtask.
	OutBytesPerItem int
}

// Spec describes a periodic task.
type Spec struct {
	Name     string
	Period   sim.Time
	Deadline sim.Time // relative end-to-end deadline dl(Ti)
	Subtasks []SubtaskSpec
}

// Validate reports structural errors in the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("task: spec without a name")
	}
	if s.Period <= 0 {
		return fmt.Errorf("task %s: non-positive period %v", s.Name, s.Period)
	}
	if s.Deadline <= 0 {
		return fmt.Errorf("task %s: non-positive deadline %v", s.Name, s.Deadline)
	}
	if len(s.Subtasks) == 0 {
		return fmt.Errorf("task %s: no subtasks", s.Name)
	}
	for i, st := range s.Subtasks {
		if st.Name == "" {
			return fmt.Errorf("task %s: subtask %d without a name", s.Name, i)
		}
		if st.Demand == nil {
			return fmt.Errorf("task %s: subtask %s without a demand function", s.Name, st.Name)
		}
		if st.OutBytesPerItem < 0 {
			return fmt.Errorf("task %s: subtask %s with negative output bytes", s.Name, st.Name)
		}
		if i == len(s.Subtasks)-1 && st.OutBytesPerItem != 0 {
			return fmt.Errorf("task %s: final subtask %s must not emit a message", s.Name, st.Name)
		}
	}
	return nil
}

// NumSubtasks returns the chain length n.
func (s Spec) NumSubtasks() int { return len(s.Subtasks) }

// Deployment tracks the replica placement PS(st) for every subtask of one
// task, in last-added order, plus the warm-up obligations of freshly
// spawned replicas.
type Deployment struct {
	spec       Spec
	placements [][]int
	warmup     []map[int]bool // per stage, processors owing a warm-up
}

// NewDeployment places subtask i's original process on homes[i].
func NewDeployment(spec Spec, homes []int) (*Deployment, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(homes) != len(spec.Subtasks) {
		return nil, fmt.Errorf("task %s: %d home processors for %d subtasks",
			spec.Name, len(homes), len(spec.Subtasks))
	}
	d := &Deployment{
		spec:       spec,
		placements: make([][]int, len(homes)),
		warmup:     make([]map[int]bool, len(homes)),
	}
	for i, h := range homes {
		if h < 0 {
			return nil, fmt.Errorf("task %s: negative home processor for subtask %d", spec.Name, i)
		}
		d.placements[i] = []int{h}
		d.warmup[i] = make(map[int]bool)
	}
	return d, nil
}

func (d *Deployment) checkStage(stage int) {
	if stage < 0 || stage >= len(d.placements) {
		panic(fmt.Sprintf("task: stage %d out of %d", stage, len(d.placements)))
	}
}

// Replicas returns a copy of PS(st) for the stage, in placement order
// (home first, latest addition last).
func (d *Deployment) Replicas(stage int) []int {
	d.checkStage(stage)
	return append([]int(nil), d.placements[stage]...)
}

// AppendReplicas appends PS(st) for the stage to dst and returns the
// extended slice — the allocation-free counterpart of Replicas for hot
// paths that reuse a scratch buffer.
func (d *Deployment) AppendReplicas(stage int, dst []int) []int {
	d.checkStage(stage)
	return append(dst, d.placements[stage]...)
}

// ReplicaCount returns |PS(st)| for the stage.
func (d *Deployment) ReplicaCount(stage int) int {
	d.checkStage(stage)
	return len(d.placements[stage])
}

// Has reports whether the stage already has a replica on proc.
func (d *Deployment) Has(stage, proc int) bool {
	d.checkStage(stage)
	for _, p := range d.placements[stage] {
		if p == proc {
			return true
		}
	}
	return false
}

// AddReplica appends a replica of the stage on proc (Figure 5 step 5).
// The new replica owes a warm-up on its first use.
func (d *Deployment) AddReplica(stage, proc int) error {
	d.checkStage(stage)
	if !d.spec.Subtasks[stage].Replicable {
		return fmt.Errorf("task %s: subtask %s is not replicable",
			d.spec.Name, d.spec.Subtasks[stage].Name)
	}
	if d.Has(stage, proc) {
		return fmt.Errorf("task %s: subtask %s already has a replica on processor %d",
			d.spec.Name, d.spec.Subtasks[stage].Name, proc)
	}
	if proc < 0 {
		return fmt.Errorf("task %s: negative processor id %d", d.spec.Name, proc)
	}
	d.placements[stage] = append(d.placements[stage], proc)
	d.warmup[stage][proc] = true
	return nil
}

// RemoveLastReplica pops the most recently added replica (Figure 6). It
// refuses to remove the last remaining replica, returning ok = false.
func (d *Deployment) RemoveLastReplica(stage int) (proc int, ok bool) {
	d.checkStage(stage)
	ps := d.placements[stage]
	if len(ps) <= 1 {
		return 0, false
	}
	proc = ps[len(ps)-1]
	d.placements[stage] = ps[:len(ps)-1]
	delete(d.warmup[stage], proc)
	return proc, true
}

// RemoveProcessor drops the stage's replica on proc wherever it sits in
// PS(st); it refuses (ok = false) when proc hosts the only replica — use
// ReplaceProcessor to relocate in that case. Used for crash fail-over.
func (d *Deployment) RemoveProcessor(stage, proc int) bool {
	d.checkStage(stage)
	ps := d.placements[stage]
	if len(ps) <= 1 {
		return false
	}
	for i, p := range ps {
		if p == proc {
			d.placements[stage] = append(ps[:i:i], ps[i+1:]...)
			delete(d.warmup[stage], proc)
			return true
		}
	}
	return false
}

// ReplaceProcessor relocates the stage's replica from old to new,
// preserving its position in PS(st). The relocated replica owes a
// warm-up. Used when a crashed node hosted the only replica.
func (d *Deployment) ReplaceProcessor(stage, old, new int) error {
	d.checkStage(stage)
	if new < 0 {
		return fmt.Errorf("task %s: negative processor id %d", d.spec.Name, new)
	}
	if d.Has(stage, new) {
		return fmt.Errorf("task %s: subtask %s already has a replica on processor %d",
			d.spec.Name, d.spec.Subtasks[stage].Name, new)
	}
	for i, p := range d.placements[stage] {
		if p == old {
			d.placements[stage][i] = new
			delete(d.warmup[stage], old)
			d.warmup[stage][new] = true
			return nil
		}
	}
	return fmt.Errorf("task %s: subtask %s has no replica on processor %d",
		d.spec.Name, d.spec.Subtasks[stage].Name, old)
}

// ConsumeWarmup reports whether the replica on proc still owes its
// warm-up, clearing the obligation.
func (d *Deployment) ConsumeWarmup(stage, proc int) bool {
	d.checkStage(stage)
	if d.warmup[stage][proc] {
		delete(d.warmup[stage], proc)
		return true
	}
	return false
}

// ReplicaCounts returns |PS(st)| for every stage.
func (d *Deployment) ReplicaCounts() []int {
	out := make([]int, len(d.placements))
	for i := range d.placements {
		out[i] = len(d.placements[i])
	}
	return out
}

// MeanReplicasOfReplicable returns the mean replica count across
// replicable subtasks — the quantity Figure 9(d) reports.
func (d *Deployment) MeanReplicasOfReplicable() float64 {
	var sum, n float64
	for i, st := range d.spec.Subtasks {
		if st.Replicable {
			sum += float64(len(d.placements[i]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// SplitItems divides `items` across k replicas as evenly as integers
// allow: the first items%k replicas receive one extra item.
func SplitItems(items, k int) []int {
	return SplitItemsInto(nil, items, k)
}

// SplitItemsInto is SplitItems writing into dst's storage (grown as
// needed), for hot paths that reuse a scratch buffer.
func SplitItemsInto(dst []int, items, k int) []int {
	if k <= 0 {
		panic(fmt.Sprintf("task: SplitItems across %d replicas", k))
	}
	if items < 0 {
		panic(fmt.Sprintf("task: SplitItems of %d items", items))
	}
	if cap(dst) < k {
		dst = make([]int, k)
	}
	out := dst[:k]
	base, extra := items/k, items%k
	for i := range out {
		out[i] = base
		if i < extra {
			out[i]++
		}
	}
	return out
}

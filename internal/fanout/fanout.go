// Package fanout grows warm model replicas through multicast-style transform
// trees: every newly transformed container immediately becomes a donor for
// the next wave (λScale's fast model scaling), with the recipient-local
// structure-load phase pipelined ahead of the donor-occupying weights-assign
// phase (Cicada's decoupled load). Donor scheduling is a first-class
// resource: each node carries a bounded number of concurrent outbound
// donation streams, and the tree hands donors out against that budget.
//
// The package owns the tree bookkeeping — membership, lineage, per-node
// donation slots, wave accounting and the poison/quarantine logic — while
// the simulation engine owns containers, costs, event scheduling and fault
// injection. All tree state lives in virtual time (time.Duration offsets)
// and every scheduling decision is deterministic: candidates are considered
// in member-ID order, so a fixed seed reproduces the exact same tree.
//
// Fault model. A donor can die midway through streaming weights to a child
// (faults.FanoutCrash): its orphaned in-flight children are re-parented onto
// the nearest healthy ancestor, walking the lineage upward before falling
// back to any healthy member and finally to a from-scratch load. A child can
// complete with a silently corrupt model (faults.Corrupt): the member looks
// warm, may donate onward, and poisons every descendant built from it. Each
// member carries the cumulative edge-rewiring ledger of its lineage;
// corruption unbalances the ledger, and the wave-boundary sweep (plus a
// final audit) runs metaop.CheckEdgeBalance over it to quarantine the
// poisoned member together with its descendant subtree — lineage confines
// the blast radius instead of letting the corruption spread epidemically.
package fanout

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metaop"
	"repro/internal/metrics"
)

// Config parameterizes fan-out transform trees.
type Config struct {
	// Enabled turns fan-out trees on.
	Enabled bool
	// Bandwidth bounds concurrent outbound donation streams per node — the
	// donor-side transform bandwidth (default 2).
	Bandwidth int
	// Threshold is the per-node queue depth that triggers a tree for the
	// queued function (default 4).
	Threshold int
	// MaxRecipients caps how many new replicas one tree builds (default 16).
	MaxRecipients int
	// Independent is the baseline schedule: completed recipients never
	// donate, so every child streams from the original seed donors.
	Independent bool
}

// WithDefaults fills unset fields with their defaults.
func (c Config) WithDefaults() Config {
	if c.Bandwidth <= 0 {
		c.Bandwidth = 2
	}
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.MaxRecipients <= 0 {
		c.MaxRecipients = 16
	}
	return c
}

// State is a tree member's lifecycle state.
type State uint8

const (
	// StateBuilding is a recipient under construction: loading structure,
	// waiting for a donor, streaming weights, or falling back to a load.
	StateBuilding State = iota
	// StateWarm is a completed replica with a balanced rewiring ledger,
	// serving traffic and (in tree mode) donating to the next wave.
	StateWarm
	// StatePoisoned is a completed replica whose model is silently corrupt —
	// indistinguishable from warm until a wave sweep or the final audit runs
	// the edge-balance check over its ledger. It serves and donates, which
	// is exactly how poison spreads to descendants.
	StatePoisoned
	// StateQuarantined is a member cut out of the tree by the edge-balance
	// verification: the detected poisoned member and its whole descendant
	// subtree. Its container is torn down and a replacement is rebuilt from
	// a clean donor.
	StateQuarantined
	// StateDead is a member lost to a donor crash, a recipient loss or the
	// container lifecycle (eviction, repurpose, node outage).
	StateDead
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBuilding:
		return "building"
	case StateWarm:
		return "warm"
	case StatePoisoned:
		return "poisoned"
	case StateQuarantined:
		return "quarantined"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Transition is one edge of the member lifecycle, with its trigger. The
// DESIGN.md lineage-quarantine table is kept in lockstep with Transitions by
// a guard test.
type Transition struct {
	From, To State
	Trigger  string
}

// Transitions returns the authoritative member lifecycle table.
func Transitions() []Transition {
	return []Transition{
		{StateBuilding, StateWarm, "weights assignment or fallback load completed with a balanced rewiring ledger"},
		{StateBuilding, StatePoisoned, "completed with a corrupt-output draw or a poisoned donor's inherited ledger"},
		{StateBuilding, StateBuilding, "donor lost mid-stream; re-parented onto the nearest healthy ancestor or parked for the next free donor"},
		{StateBuilding, StateQuarantined, "ancestor's corruption detected by a wave sweep while this child was still in flight"},
		{StateBuilding, StateDead, "recipient container or node lost before completion; a replacement is rebuilt"},
		{StateWarm, StateDead, "donor crashed mid-donation or was lost to the container lifecycle"},
		{StatePoisoned, StateDead, "donor crashed mid-donation or was lost to the container lifecycle"},
		{StatePoisoned, StateQuarantined, "edge-balance verification caught the unbalanced ledger at a wave boundary or the final audit"},
	}
}

// phase refines StateBuilding.
type phase uint8

const (
	phaseNone    phase = iota
	phaseStruct        // loading graph structure locally (no donor needed)
	phasePending       // structure ready, parked until a donor slot frees
	phaseWeights       // streaming weights from the assigned donor
	phaseLoad          // falling back to a from-scratch load
)

// Member is one node of the tree: a seed donor or a recipient replica.
type Member struct {
	// ID indexes the member within its tree (creation order).
	ID int
	// Node is the cluster node hosting the member's container.
	Node int
	// Parent is the donor member the replica received its weights from; -1
	// for seeds and for children built by a from-scratch fallback load.
	Parent int
	// Wave is the tree depth: seeds are wave 0, a child is its donor's wave
	// plus one; -1 while a recipient has not been assigned a donor yet.
	Wave int
	// State is the lifecycle state.
	State State
	// Seed marks a pre-existing warm donor adopted at tree start.
	Seed bool

	phase    phase
	kids     []int
	inflight int // children currently streaming from this member
	// The cumulative edge-rewiring ledger inherited down the lineage;
	// corruption unbalances it (see metaop.CheckEdgeBalance).
	ledgerAdds, ledgerRemoves, ledgerDiff int
}

// poisonedLedger reports whether the member's ledger fails the edge-balance
// verification — the observable symptom of a corrupt model.
func (m *Member) poisonedLedger() bool {
	return metaop.CheckEdgeBalance(m.ledgerAdds, m.ledgerRemoves, m.ledgerDiff) != nil
}

// Assignment is a donor granted to a parked child.
type Assignment struct {
	Child, Donor, DonorNode int
}

// Reparent is the outcome for one orphaned in-flight child of a lost donor.
// NewDonor is the adopting ancestor's member ID, or -1 when no healthy donor
// had a free slot and the child was parked.
type Reparent struct {
	Child, NewDonor, NewDonorNode int
}

// Quarantine lists the members cut out by an edge-balance sweep. Removed
// members had completed (their containers must be torn down); Cancelled
// members were still in flight (containers and scheduled events dropped).
type Quarantine struct {
	Removed   []int
	Cancelled []int
}

// Empty reports whether the sweep cut nothing.
func (q Quarantine) Empty() bool { return len(q.Removed) == 0 && len(q.Cancelled) == 0 }

// CompleteResult reports what a child completion triggered.
type CompleteResult struct {
	// Completed reports the member actually transitioned out of StateBuilding
	// here. False means the call was a stale no-op — the child was re-parented,
	// cancelled, quarantined or diverted since the completion was scheduled —
	// and the caller must not treat the member as warm.
	Completed bool
	// Swept holds the members quarantined by the wave-boundary sweep (or the
	// final audit) that this completion closed.
	Swept Quarantine
	// TreeDone reports the tree reached its target with every ledger clean.
	TreeDone bool
	// ViaDonation reports the child finished a weights stream (as opposed to
	// a from-scratch fallback load) — the engine records breaker successes
	// only for actual donations.
	ViaDonation bool
}

// Tree is one fan-out transform tree warming Want replicas of one function.
// Safe for concurrent use; the simulator calls it under its own lock but the
// race stress tests drive it from many goroutines.
type Tree struct {
	mu       sync.Mutex
	cfg      Config
	fn       string
	want     int
	start    time.Duration
	members  []*Member
	streams  map[int]int // node → active outbound donation streams
	pending  []int       // FIFO of children parked waiting for a donor
	waveOpen map[int]int // wave → children assigned and not yet resolved
	maxWave  int
	stats    metrics.FanoutStats
	done     bool
}

// New starts a tree warming want replicas of fn, triggered at virtual time
// now. Seeds are added separately with AddSeed.
func New(cfg Config, fn string, want int, now time.Duration) *Tree {
	cfg = cfg.WithDefaults()
	if want > cfg.MaxRecipients {
		want = cfg.MaxRecipients
	}
	t := &Tree{
		cfg:      cfg,
		fn:       fn,
		want:     want,
		start:    now,
		streams:  make(map[int]int),
		waveOpen: make(map[int]int),
	}
	t.stats.Trees = 1
	return t
}

// Fn returns the target function name.
func (t *Tree) Fn() string { return t.fn }

// Done reports whether the tree reached its target with clean ledgers.
func (t *Tree) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// Stats returns a snapshot of the tree's tallies.
func (t *Tree) Stats() metrics.FanoutStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Members returns a copy of the membership for inspection.
func (t *Tree) Members() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, len(t.members))
	for i, m := range t.members {
		out[i] = *m
		out[i].kids = append([]int(nil), m.kids...)
	}
	return out
}

// AddSeed adopts a pre-existing warm replica on the node as a wave-0 donor
// and returns its member ID. Seeds do not count toward Want.
func (t *Tree) AddSeed(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := &Member{ID: len(t.members), Node: node, Parent: -1, Wave: 0, State: StateWarm, Seed: true}
	t.members = append(t.members, m)
	return m.ID
}

// NeedRecipients returns how many recipients still have to be started:
// the target minus every live recipient (building or completed).
func (t *Tree) NeedRecipients() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.needLocked()
}

func (t *Tree) needLocked() int {
	live := 0
	for _, m := range t.members {
		if !m.Seed && (m.State == StateBuilding || m.State == StateWarm || m.State == StatePoisoned) {
			live++
		}
	}
	if n := t.want - live; n > 0 {
		return n
	}
	return 0
}

// StartRecipient places a new recipient on one of the candidate nodes
// (pre-filtered by the engine for capacity and health, in deterministic
// order) and returns its member ID. The recipient begins in the structure-
// load phase, which needs no donor — the engine schedules its completion and
// then calls StructDone. Placement spreads replicas: the candidate hosting
// the fewest live tree members wins, first-listed on ties.
func (t *Tree) StartRecipient(nodes []int) (child, node int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done || t.needLocked() == 0 || len(nodes) == 0 {
		return 0, 0, false
	}
	hosted := make(map[int]int)
	for _, m := range t.members {
		if m.State == StateBuilding || m.State == StateWarm || m.State == StatePoisoned {
			hosted[m.Node]++
		}
	}
	best, bestN := -1, 0
	for _, n := range nodes {
		if best == -1 || hosted[n] < bestN {
			best, bestN = n, hosted[n]
		}
	}
	m := &Member{ID: len(t.members), Node: best, Parent: -1, Wave: -1, State: StateBuilding, phase: phaseStruct}
	t.members = append(t.members, m)
	return m.ID, best, true
}

// StructDone moves the child from the structure-load phase to the donor
// queue and immediately tries to assign a donor (see AssignDonor). When no
// donor has a free stream the child parks until PumpPending hands one out.
func (t *Tree) StructDone(child int, eligible func(member, node int) bool) (Assignment, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding || m.phase != phaseStruct {
		return Assignment{}, false
	}
	m.phase = phasePending
	if a, ok := t.assignLocked(m, eligible); ok {
		return a, true
	}
	t.pending = append(t.pending, child)
	return Assignment{}, false
}

// assignLocked grants the lowest-ID eligible donor with a free outbound
// stream to the pending child.
func (t *Tree) assignLocked(m *Member, eligible func(member, node int) bool) (Assignment, bool) {
	for _, d := range t.members {
		if !t.canDonateLocked(d) {
			continue
		}
		if eligible != nil && !eligible(d.ID, d.Node) {
			continue
		}
		t.attachLocked(m, d)
		return Assignment{Child: m.ID, Donor: d.ID, DonorNode: d.Node}, true
	}
	return Assignment{}, false
}

func (t *Tree) canDonateLocked(d *Member) bool {
	if d.State != StateWarm && d.State != StatePoisoned {
		return false
	}
	if t.cfg.Independent && !d.Seed {
		return false
	}
	return t.streams[d.Node] < t.cfg.Bandwidth
}

func (t *Tree) attachLocked(m, d *Member) {
	m.Parent = d.ID
	m.phase = phaseWeights
	if m.Wave < 0 {
		m.Wave = d.Wave + 1
		if m.Wave > t.maxWave {
			t.maxWave = m.Wave
			t.stats.Waves = t.maxWave
		}
		t.waveOpen[m.Wave]++
	}
	d.kids = append(d.kids, m.ID)
	d.inflight++
	t.streams[d.Node]++
}

// PumpPending hands freed donor streams to parked children in FIFO order and
// returns the assignments for the engine to schedule.
func (t *Tree) PumpPending(eligible func(member, node int) bool) []Assignment {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pumpLocked(eligible)
}

func (t *Tree) pumpLocked(eligible func(member, node int) bool) []Assignment {
	var out []Assignment
	rest := t.pending[:0]
	for _, id := range t.pending {
		m := t.members[id]
		if m.State != StateBuilding || m.phase != phasePending {
			continue // cancelled or quarantined while parked
		}
		if a, ok := t.assignLocked(m, eligible); ok {
			out = append(out, a)
		} else {
			rest = append(rest, id)
		}
	}
	t.pending = rest
	return out
}

// ToFallback diverts a building child to a from-scratch load: a wave-cancel
// (the assigned donation would have blown the wave deadline) or a no-donor
// fallback (open circuit breaker, donors exhausted). Any held donation
// stream is released and the lineage link is cut — a from-scratch load
// cannot inherit poison. waveCancel distinguishes the watchdog path in the
// tallies.
func (t *Tree) ToFallback(child int, waveCancel bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding {
		return
	}
	t.detachLocked(m)
	m.phase = phaseLoad
	m.ledgerAdds, m.ledgerRemoves, m.ledgerDiff = 0, 0, 0
	t.stats.LoadFallbacks++
	if waveCancel {
		t.stats.WaveCancels++
	}
}

// detachLocked severs a building child from its donor, releasing the donor's
// outbound stream.
func (t *Tree) detachLocked(m *Member) {
	if m.phase != phaseWeights || m.Parent < 0 {
		m.Parent = -1
		return
	}
	d := t.members[m.Parent]
	d.inflight--
	t.streams[d.Node]--
	for i, k := range d.kids {
		if k == m.ID {
			d.kids = append(d.kids[:i], d.kids[i+1:]...)
			break
		}
	}
	m.Parent = -1
}

// Complete finishes a child's weights stream or fallback load. corrupt is
// the engine's faults.Corrupt draw for this completion; a corrupt output —
// or a poisoned donor's inherited ledger — leaves the member looking warm
// while its ledger is unbalanced. Completion closes the child's wave when it
// was the last one outstanding, which triggers the wave-boundary sweep; when
// the tree reaches its target the final audit runs the same verification
// over every member.
func (t *Tree) Complete(child int, now time.Duration, corrupt bool) CompleteResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	var res CompleteResult
	m := t.members[child]
	if m.State != StateBuilding || (m.phase != phaseWeights && m.phase != phaseLoad) {
		return res
	}
	wasWeights := m.phase == phaseWeights
	res.ViaDonation = wasWeights
	if wasWeights {
		d := t.members[m.Parent]
		// The replica inherits its donor's cumulative rewiring ledger; its
		// own replication step rewires nothing.
		m.ledgerAdds, m.ledgerRemoves, m.ledgerDiff = d.ledgerAdds, d.ledgerRemoves, d.ledgerDiff
		d.inflight--
		t.streams[d.Node]--
	}
	if corrupt && wasWeights {
		// The corrupt stream claims an edge removal that never happened,
		// unbalancing the ledger without changing the graph diff.
		m.ledgerRemoves++
		t.stats.CorruptOutputs++
	}
	m.phase = phaseNone
	if m.poisonedLedger() {
		m.State = StatePoisoned
	} else {
		m.State = StateWarm
	}
	res.Completed = true
	t.stats.Recipients++
	if m.Wave >= 0 {
		t.waveOpen[m.Wave]--
		if t.waveOpen[m.Wave] == 0 {
			t.sweepLocked(m.Wave, &res.Swept)
		}
	}
	t.checkDoneLocked(now, &res)
	return res
}

// sweepLocked runs the edge-balance verification over every completed member
// of the wave (wave < 0 audits all members) and quarantines each poisoned
// member together with its descendant subtree.
func (t *Tree) sweepLocked(wave int, q *Quarantine) {
	for _, m := range t.members {
		if wave >= 0 && m.Wave != wave {
			continue
		}
		if m.State != StateWarm && m.State != StatePoisoned {
			continue
		}
		if m.poisonedLedger() {
			t.quarantineLocked(m, q)
		}
	}
}

// quarantineLocked cuts the member and its descendants out of the tree.
func (t *Tree) quarantineLocked(root *Member, q *Quarantine) {
	stack := []*Member{root}
	for len(stack) > 0 {
		m := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range m.kids {
			stack = append(stack, t.members[k])
		}
		switch m.State {
		case StateWarm, StatePoisoned:
			// Any active donation streams are released one by one as the
			// DFS cancels the in-flight children holding them.
			m.State = StateQuarantined
			t.stats.Quarantined++
			q.Removed = append(q.Removed, m.ID)
		case StateBuilding:
			// In-flight descendant: its stream would deliver poisoned
			// weights, so it is cancelled outright and rebuilt. The parent
			// pointer survives as the lineage record of why it was cut.
			parent := m.Parent
			t.releaseLocked(m)
			m.Parent = parent
			m.State = StateQuarantined
			t.stats.Quarantined++
			q.Cancelled = append(q.Cancelled, m.ID)
		}
	}
}

// releaseLocked frees everything a building child holds: its donor's stream
// and its wave slot.
func (t *Tree) releaseLocked(m *Member) {
	t.detachLocked(m)
	m.phase = phaseNone
	if m.Wave >= 0 {
		t.waveOpen[m.Wave]--
		// Closing the wave here must not recurse into a sweep: the caller is
		// already mid-sweep or tearing the member down; the final audit
		// covers anything a skipped boundary would have caught.
	}
}

// checkDoneLocked runs the final audit once the target is reached with
// nothing in flight, and marks the tree done when every ledger is clean.
func (t *Tree) checkDoneLocked(now time.Duration, res *CompleteResult) {
	if t.done {
		res.TreeDone = true
		return
	}
	completed, building := 0, 0
	for _, m := range t.members {
		if m.Seed {
			continue
		}
		switch m.State {
		case StateWarm, StatePoisoned:
			completed++
		case StateBuilding:
			building++
		}
	}
	if completed < t.want || building > 0 {
		return
	}
	t.sweepLocked(-1, &res.Swept)
	if t.needLocked() > 0 {
		return // the audit cut poisoned members; replacements are needed
	}
	t.done = true
	t.stats.TreesCompleted++
	t.stats.TimeToWarm = now - t.start
	res.TreeDone = true
}

// DonorLost handles a donor dying mid-donation (injected=true for the
// FanoutCrash fault, false for losses to the container lifecycle). Each
// orphaned in-flight child is re-parented onto the nearest healthy ancestor:
// the lineage is walked upward from the lost donor, falling back to any
// healthy member with a free stream, and parked when none qualifies. The
// engine reschedules assigned orphans (the stream restarts from the new
// donor) and drops the old completion events.
func (t *Tree) DonorLost(donor int, eligible func(member, node int) bool, injected bool) []Reparent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.donorLostLocked(donor, eligible, injected)
}

func (t *Tree) donorLostLocked(donor int, eligible func(member, node int) bool, injected bool) []Reparent {
	d := t.members[donor]
	if d.State != StateWarm && d.State != StatePoisoned {
		return nil
	}
	d.State = StateDead
	t.streams[d.Node] -= d.inflight
	d.inflight = 0
	if injected {
		t.stats.DonorCrashes++
	}
	var orphans []*Member
	for _, k := range d.kids {
		m := t.members[k]
		if m.State == StateBuilding && m.phase == phaseWeights && m.Parent == donor {
			orphans = append(orphans, m)
		}
	}
	var out []Reparent
	for _, m := range orphans {
		m.Parent = -1
		// Remove the orphan from the dead donor's kids: its weights now come
		// from elsewhere, so the lineage (and any future quarantine of the
		// dead donor's subtree) must not claim it.
		for i, k := range d.kids {
			if k == m.ID {
				d.kids = append(d.kids[:i], d.kids[i+1:]...)
				break
			}
		}
		t.stats.Reparents++
		if a, ok := t.adoptLocked(m, d, eligible); ok {
			out = append(out, Reparent{Child: m.ID, NewDonor: a.Donor, NewDonorNode: a.DonorNode})
		} else {
			// Deferred adoption: parked until PumpPending finds a donor.
			m.phase = phasePending
			t.pending = append(t.pending, m.ID)
			out = append(out, Reparent{Child: m.ID, NewDonor: -1})
		}
	}
	return out
}

// adoptLocked re-parents an orphan: nearest healthy ancestor first (walking
// the lost donor's lineage upward), then any healthy member in ID order.
func (t *Tree) adoptLocked(m, lost *Member, eligible func(member, node int) bool) (Assignment, bool) {
	ok := func(c *Member) bool {
		return t.canDonateLocked(c) && (eligible == nil || eligible(c.ID, c.Node))
	}
	for p := lost.Parent; p >= 0; {
		anc := t.members[p]
		if ok(anc) {
			m.phase = phasePending
			t.attachLocked(m, anc)
			return Assignment{Child: m.ID, Donor: anc.ID, DonorNode: anc.Node}, true
		}
		p = anc.Parent
	}
	for _, c := range t.members {
		if ok(c) {
			m.phase = phasePending
			t.attachLocked(m, c)
			return Assignment{Child: m.ID, Donor: c.ID, DonorNode: c.Node}, true
		}
	}
	return Assignment{}, false
}

// Stranded returns the children parked for a donor when the tree can no
// longer produce one: nothing is in flight that could complete into a donor,
// and no completed member passes the aliveness check (its container may be
// dead, evicted or repurposed). Such children can only finish through a
// from-scratch fallback load; the engine diverts them so the tree keeps
// making progress instead of stalling on a donor that will never exist.
func (t *Tree) Stranded(alive func(member, node int) bool) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.members {
		switch {
		case m.State == StateBuilding && (m.phase == phaseWeights || m.phase == phaseLoad):
			// An in-flight stream can still complete into a donor — except in
			// independent mode, where recipients never donate.
			if !t.cfg.Independent {
				return nil
			}
		case (m.State == StateWarm || m.State == StatePoisoned) &&
			(alive == nil || alive(m.ID, m.Node)):
			// A live completed member is only a future donor if the mode lets
			// it donate at all; independent mode restricts donation to seeds.
			if !t.cfg.Independent || m.Seed {
				return nil
			}
		}
	}
	var out []int
	for _, id := range t.pending {
		if m := t.members[id]; m.State == StateBuilding && m.phase == phasePending {
			out = append(out, id)
		}
	}
	return out
}

// RecipientLost handles a building child losing its container or node before
// completion. Whatever it held is released; NeedRecipients grows so the
// engine rebuilds a replacement.
func (t *Tree) RecipientLost(child int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m.State != StateBuilding {
		return
	}
	t.releaseLocked(m)
	m.State = StateDead
}

// MemberLost handles a completed member (donor or idle replica) lost to the
// container lifecycle without an active donation: eviction, repurposing or a
// node outage. With active donations DonorLost applies instead; MemberLost
// forwards in that case.
func (t *Tree) MemberLost(member int, eligible func(member, node int) bool) []Reparent {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[member]
	// The inflight check and the state transition share one critical section:
	// a concurrent attach between a dropped-and-retaken lock could leave an
	// in-flight child streaming from a member already marked dead.
	if m.inflight > 0 {
		return t.donorLostLocked(member, eligible, false)
	}
	if m.State == StateWarm || m.State == StatePoisoned {
		m.State = StateDead
	}
	return nil
}

// Streams returns the node's active outbound donation streams (for tests).
func (t *Tree) Streams(node int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.streams[node]
}

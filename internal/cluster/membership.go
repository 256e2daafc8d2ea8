package cluster

import "sort"

// Membership is the coordinator's live-node bookkeeping: the live set,
// each member's consecutive failed-probe count, and the threshold that
// turns failures into a death. It is a plain value with no goroutine, no
// lock and no clock — the coordinator that owns it probes the live nodes
// however it likes and reports the verdicts through Observe. Death is
// one-way on its own: a dead node never slips back in just by answering
// probes again, only through Admit, the coordinator's validated
// join/rejoin path (DESIGN.md §15).
type Membership struct {
	threshold int
	peers     []Node // live peers, sorted by name
	fails     map[string]int
}

// NewMembership builds a membership over the seed peers, all presumed
// alive. threshold is the number of consecutive failed probes that
// declares a node dead; non-positive means 2, so one dropped packet does
// not trigger a shard handoff.
func NewMembership(peers []Node, threshold int) *Membership {
	if threshold <= 0 {
		threshold = 2
	}
	live := append([]Node(nil), peers...)
	sort.Slice(live, func(i, j int) bool { return live[i].Name < live[j].Name })
	return &Membership{threshold: threshold, peers: live, fails: make(map[string]int, len(live))}
}

// Admit adds a node to the live set, or revives a dead one. The node's
// failure count resets and its address is updated in place (a restarted
// node usually comes back on a new port).
func (m *Membership) Admit(n Node) {
	m.fails[n.Name] = 0
	for i := range m.peers {
		if m.peers[i].Name == n.Name {
			m.peers[i].Addr = n.Addr
			return
		}
	}
	m.peers = append(m.peers, n)
	sort.Slice(m.peers, func(i, j int) bool { return m.peers[i].Name < m.peers[j].Name })
}

// Live returns a copy of the current live node set, sorted by name.
func (m *Membership) Live() []Node { return append([]Node(nil), m.peers...) }

// Observe applies one probe pass: failed names the live nodes whose probe
// failed, every other live node's failure count resets. Nodes reaching
// the threshold leave the live set. It returns the live set after the
// pass and the nodes that died in it.
func (m *Membership) Observe(failed map[string]bool) (live, died []Node) {
	for _, p := range m.peers {
		if failed[p.Name] {
			m.fails[p.Name]++
		} else {
			m.fails[p.Name] = 0
		}
		if m.fails[p.Name] >= m.threshold {
			died = append(died, p)
			delete(m.fails, p.Name)
			continue // dead: out of the live set until readmitted
		}
		live = append(live, p)
	}
	m.peers = live
	return m.Live(), died
}

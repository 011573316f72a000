// Package stream adapts the analysis workflow to live monitoring data, the
// extension the paper's related-work section sketches ("since our pruning
// techniques are applied after the rules are generated, we can integrate"
// streaming miners into the workflow). A Miner maintains a sliding window
// of the most recent transactions; snapshots mine the window with FP-Growth
// and successive snapshots can be diffed to surface rules that appeared or
// vanished — exactly what an operator dashboard needs to notice, say, a new
// failure association emerging after a driver rollout.
package stream

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fpgrowth"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/transaction"
)

// Config sizes the window and fixes the mining thresholds.
type Config struct {
	// WindowSize is the number of most recent transactions retained.
	WindowSize int
	// MinSupport is the per-window support threshold; zero means 0.05.
	MinSupport float64
	// MaxLen caps itemset length; zero means 5.
	MaxLen int
	// MinLift filters generated rules; zero means 1.5.
	MinLift float64
	// Workers sets the mining parallelism, forwarded to fpgrowth.Mine and
	// rules.Generate. Zero means GOMAXPROCS; 1 forces serial mining. The
	// mined rules are identical for any worker count.
	Workers int
	// Incremental maintains a persistent FP-tree across mines: Observe
	// applies a weighted insert for the arriving transaction and a weighted
	// decrement along the evicted one's path, so steady-state mine cost is
	// proportional to the delta since the last mine rather than the window.
	// Mined rules are identical either way; this is purely a latency mode.
	Incremental bool
	// IncOptions tunes the incremental tree's rebuild fallbacks (rank-drift
	// threshold, dead-node fraction). Zero values pick the fpgrowth
	// defaults. Ignored unless Incremental is set.
	IncOptions fpgrowth.IncOptions
}

// Miner is a sliding-window association rule miner. It is not safe for
// concurrent use: confine it to a single goroutine (internal/server wraps
// it behind exactly that — one writer loop fed by a channel) and publish
// immutable Views to readers instead of sharing the Miner itself.
type Miner struct {
	cfg     Config
	catalog *itemset.Catalog
	ring    [][]itemset.Item
	next    int
	filled  bool
	total   int
	// inc is the persistent FP-tree mirror of the ring, maintained
	// per-Observe when cfg.Incremental is set; nil otherwise.
	inc *fpgrowth.Incremental
}

// New returns a Miner over catalog (nil allocates a fresh one).
func New(catalog *itemset.Catalog, cfg Config) (*Miner, error) {
	if cfg.WindowSize < 1 {
		return nil, fmt.Errorf("stream: window size %d", cfg.WindowSize)
	}
	if cfg.MinSupport == 0 {
		cfg.MinSupport = 0.05
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = 5
	}
	if cfg.MinLift == 0 {
		cfg.MinLift = 1.5
	}
	if catalog == nil {
		catalog = itemset.NewCatalog()
	}
	m := &Miner{
		cfg:     cfg,
		catalog: catalog,
		ring:    make([][]itemset.Item, cfg.WindowSize),
	}
	if cfg.Incremental {
		m.inc = fpgrowth.NewIncremental(cfg.IncOptions)
	}
	return m, nil
}

// Catalog returns the item catalog backing the miner.
func (m *Miner) Catalog() *itemset.Catalog { return m.catalog }

// Observe appends one transaction, evicting the oldest when the window is
// full. In incremental mode the persistent tree absorbs the same delta:
// one weighted decrement for the eviction, one weighted insert for the
// arrival.
func (m *Miner) Observe(items ...itemset.Item) {
	txn := itemset.NewSet(items...)
	var evictErr error
	if m.inc != nil {
		if m.filled {
			evictErr = m.inc.Remove(m.ring[m.next])
		}
		if evictErr == nil {
			m.inc.Add(txn)
		}
	}
	m.ring[m.next] = txn
	m.next++
	m.total++
	if m.next == len(m.ring) {
		m.next = 0
		m.filled = true
	}
	if evictErr != nil {
		// The tree disagreed with the ring about the evicted path. That is
		// an invariant break that must never poison mining, so resync the
		// tree from the ring — the incremental worst case is by design the
		// non-incremental steady state.
		m.resetInc()
	}
}

// resetInc rebuilds the persistent tree from the ring contents.
func (m *Miner) resetInc() {
	m.inc = fpgrowth.NewIncremental(m.cfg.IncOptions)
	if m.filled {
		for _, txn := range m.ring[m.next:] {
			m.inc.Add(txn)
		}
	}
	for _, txn := range m.ring[:m.next] {
		m.inc.Add(txn)
	}
}

// ObserveNames is Observe with name interning.
func (m *Miner) ObserveNames(names ...string) {
	items := make([]itemset.Item, len(names))
	for i, n := range names {
		items[i] = m.catalog.Intern(n)
	}
	m.Observe(items...)
}

// Len returns the number of transactions currently in the window.
func (m *Miner) Len() int {
	if m.filled {
		return len(m.ring)
	}
	return m.next
}

// Export returns the window's transactions oldest-first plus the total
// observed count — the miner's half of a serving checkpoint. The returned
// sets alias the ring (Observe replaces slots rather than mutating them), so
// treat them as read-only and serialize before the next Observe.
func (m *Miner) Export() ([]itemset.Set, int) {
	n := m.Len()
	out := make([]itemset.Set, 0, n)
	if m.filled {
		for _, txn := range m.ring[m.next:] {
			out = append(out, txn)
		}
	}
	for _, txn := range m.ring[:m.next] {
		out = append(out, txn)
	}
	return out, m.total
}

// RestoreWindow refills an empty miner from an Export: txns oldest-first
// (item ids must be valid in this miner's catalog) and the historical total.
// The window after restore is byte-identical input to Snapshot as the window
// the export was taken from, so a restored server re-mines the same rules.
func (m *Miner) RestoreWindow(txns []itemset.Set, total int) error {
	if len(txns) > len(m.ring) {
		return fmt.Errorf("stream: restoring %d transactions into a window of %d", len(txns), len(m.ring))
	}
	if total < len(txns) {
		return fmt.Errorf("stream: restored total %d below window occupancy %d", total, len(txns))
	}
	for i, t := range txns {
		m.ring[i] = t
	}
	for i := len(txns); i < len(m.ring); i++ {
		m.ring[i] = nil
	}
	m.next = len(txns) % len(m.ring)
	m.filled = len(txns) == len(m.ring)
	m.total = total
	if m.inc != nil {
		// Checkpoints persist only the window; the tree is derived state,
		// rebuilt here so restored miners mine incrementally from the first
		// post-restore tick.
		m.resetInc()
	}
	return nil
}

// Total returns the number of transactions ever observed.
func (m *Miner) Total() int { return m.total }

// Snapshot mines the current window and returns the rules above the lift
// threshold, strongest first.
func (m *Miner) Snapshot() []rules.Rule {
	if m.inc != nil {
		m.inc.Maintain()
		return mineFrozen(m.cfg, m.inc.Freeze(), m.Len())
	}
	// Ring slots are canonical sets that Observe replaces rather than
	// mutates, so the window database can alias them.
	return mineWindow(m.cfg, m.catalog, m.ring[:m.Len()])
}

// mineWindow runs the FP-Growth → rule-generation pipeline over one
// captured window. Shared by the in-place Snapshot and the detachable
// PendingView so both mine byte-identically.
func mineWindow(cfg Config, catalog *itemset.Catalog, window [][]itemset.Item) []rules.Rule {
	n := len(window)
	if n == 0 {
		return nil
	}
	db := transaction.NewDB(catalog)
	for _, txn := range window {
		db.AddCanonical(txn)
	}
	minCount := int(math.Ceil(cfg.MinSupport * float64(n)))
	if minCount < 1 {
		minCount = 1
	}
	frequent := fpgrowth.Mine(db, fpgrowth.Options{
		MinCount: minCount,
		MaxLen:   cfg.MaxLen,
		Workers:  cfg.Workers,
	})
	return rules.Generate(frequent, n, rules.Options{MinLift: cfg.MinLift, Workers: cfg.Workers})
}

// mineFrozen is mineWindow against a maintained tree snapshot instead of a
// freshly built one: same thresholds, same rule generation, no per-mine
// O(window) tree construction.
func mineFrozen(cfg Config, ft *fpgrowth.FrozenTree, n int) []rules.Rule {
	if n == 0 {
		return nil
	}
	minCount := int(math.Ceil(cfg.MinSupport * float64(n)))
	if minCount < 1 {
		minCount = 1
	}
	frequent := ft.Mine(fpgrowth.Options{
		MinCount: minCount,
		MaxLen:   cfg.MaxLen,
		Workers:  cfg.Workers,
	})
	return rules.Generate(frequent, n, rules.Options{MinLift: cfg.MinLift, Workers: cfg.Workers})
}

// View is an immutable snapshot of the miner, safe to hand to concurrent
// readers while the miner keeps observing: the mined rules, a frozen clone
// of the catalog to render them against (item ids are stable across
// clones), and the window occupancy at mining time. Nothing in a View
// aliases miner state that later Observe calls mutate.
type View struct {
	// Rules is the mined rule set, strongest first (see Snapshot).
	Rules []rules.Rule
	// Catalog resolves the rules' item ids to names as of mining time.
	Catalog *itemset.Catalog
	// WindowLen and Total mirror Len and Total at mining time.
	WindowLen, Total int
	// Window is the captured window the rules were mined from, oldest
	// first: canonical immutable sets resolved against Catalog. It is what
	// lets a merge stage (internal/shard) re-count itemsets against the
	// exact transactions behind each published snapshot. Synthesized views
	// (e.g. a merged multi-shard view) may leave it nil.
	Window []itemset.Set
}

// View mines the current window and packages the result with a frozen
// catalog clone. This is the hand-off point between the single-writer
// mining loop and lock-free readers.
func (m *Miner) View() *View {
	return m.BeginView().Mine()
}

// PendingView is a window captured for mining away from the miner's owner
// goroutine. BeginView is cheap (slice-header copies plus a catalog
// clone); Mine does the heavy work and touches nothing the miner mutates
// afterwards — the ring slots it holds are canonical sets that Observe
// replaces rather than edits, and the catalog is a private clone. This is
// what lets the serving loop put a watchdog around mining: a hung or
// panicking Mine strands only its PendingView, never the miner, so the
// loop keeps observing and simply begins a fresh view for the next batch.
type PendingView struct {
	cfg     Config
	catalog *itemset.Catalog
	window  [][]itemset.Item
	total   int
	// frozen is a deep copy of the maintained tree taken at capture time
	// (incremental mode only): the detached mine reads it instead of
	// rebuilding from the window, and an abandoned mine strands only the
	// copy, never the miner's live tree.
	frozen *fpgrowth.FrozenTree
	// rebuilt records whether Maintain fell back to a full rebuild at this
	// capture (rank drift or fragmentation) — surfaced so the serving loop
	// can count fallback frequency.
	rebuilt bool
}

// BeginView captures the current window. Must be called from the miner's
// owner goroutine, like every other Miner method.
func (m *Miner) BeginView() *PendingView {
	n := m.Len()
	// Capture oldest-first (mining is order-blind, but View.Window promises
	// the same order Export uses, so checkpoints and merge stages agree).
	window := make([][]itemset.Item, 0, n)
	if m.filled {
		window = append(window, m.ring[m.next:]...)
	}
	window = append(window, m.ring[:m.next]...)
	pv := &PendingView{
		cfg:     m.cfg,
		catalog: m.catalog.Clone(),
		window:  window,
		total:   m.total,
	}
	if m.inc != nil {
		// Maintenance (drift check, possible rebuild) runs here in the
		// owner goroutine; the detached mine only ever reads its frozen
		// copy.
		pv.rebuilt = m.inc.Maintain()
		pv.frozen = m.inc.Freeze()
	}
	return pv
}

// Incremental reports whether this capture mines a maintained tree rather
// than rebuilding one from the window.
func (pv *PendingView) Incremental() bool { return pv.frozen != nil }

// Rebuilt reports whether capturing this view forced a full tree rebuild
// (rank-drift or fragmentation fallback). Always false outside incremental
// mode.
func (pv *PendingView) Rebuilt() bool { return pv.rebuilt }

// Mine runs the capture to completion. Safe to call on any goroutine; the
// result is identical to what Miner.View would have returned at capture
// time.
func (pv *PendingView) Mine() *View {
	window := make([]itemset.Set, len(pv.window))
	for i, txn := range pv.window {
		window[i] = itemset.Set(txn)
	}
	var rs []rules.Rule
	if pv.frozen != nil {
		rs = mineFrozen(pv.cfg, pv.frozen, len(pv.window))
	} else {
		rs = mineWindow(pv.cfg, pv.catalog, pv.window)
	}
	return &View{
		Rules:     rs,
		Catalog:   pv.catalog,
		WindowLen: len(pv.window),
		Total:     pv.total,
		Window:    window,
	}
}

// Postings is an inverted item→rule index over one immutable rule list:
// Postings[item] lists the indices (ascending) of every rule whose
// antecedent or consequent contains the item. Built once when a snapshot is
// published, it turns the keyword filter — previously a scan over every
// rule per request — into a single slice lookup.
type Postings [][]int32

// IndexRules builds the inverted index for rs over a catalog of items
// ids. Rule indices appear in each posting list in rule order, so
// materializing a list reproduces exactly the subsequence a linear
// Contains scan would have produced. Items are counted before any list is
// filled, so every list is carved out of one shared slab.
func IndexRules(rs []rules.Rule, items int) Postings {
	counts := make([]int32, items)
	total := 0
	for i := range rs {
		for _, s := range [2]itemset.Set{rs[i].Antecedent, rs[i].Consequent} {
			for _, it := range s {
				// A rule item beyond the declared catalog length
				// (impossible for views built by this package) widens the
				// index instead of panicking the read path.
				if int(it) >= len(counts) {
					counts = append(counts, make([]int32, int(it)+1-len(counts))...)
				}
				counts[it]++
			}
			total += len(s)
		}
	}
	// Carve each item's list out of one slab; counts becomes each list's
	// fill cursor.
	p := make(Postings, len(counts))
	slab := make([]int32, total)
	off := int32(0)
	for it, c := range counts {
		if c > 0 {
			p[it] = slab[off : off+c : off+c]
		}
		counts[it] = off
		off += c
	}
	for i := range rs {
		for _, s := range [2]itemset.Set{rs[i].Antecedent, rs[i].Consequent} {
			for _, it := range s {
				slab[counts[it]] = int32(i)
				counts[it]++
			}
		}
	}
	return p
}

// For returns the posting list for item (nil when the item indexes no rule).
func (p Postings) For(item itemset.Item) []int32 {
	if item < 0 || int(item) >= len(p) {
		return nil
	}
	return p[item]
}

// Delta describes how the rule set changed between two snapshots.
type Delta struct {
	// Appeared holds rules present now but not before; Vanished the
	// reverse. Both are sorted by descending lift.
	Appeared, Vanished []rules.Rule
	// Jaccard is the similarity of the two rule sets by structure
	// (antecedent ⇒ consequent identity, ignoring metric drift): 1 means
	// unchanged, 0 means disjoint.
	Jaccard float64
}

// Diff compares two snapshots structurally. It is a hash join: prev goes
// into one open-addressed table keyed on the rule's (antecedent, consequent)
// hash, cur probes it, and every hit is confirmed with Set.Equal because
// distinct rules may collide. Work is linear in len(prev)+len(cur) with a
// constant number of allocations. A rule listed twice in one snapshot
// counts once toward Jaccard but appears in Appeared/Vanished as often as
// it is listed.
func Diff(prev, cur []rules.Rule) Delta {
	np := len(prev)
	n := np + len(cur)
	rule := func(k int32) *rules.Rule {
		if int(k) < np {
			return &prev[k]
		}
		return &cur[int(k)-np]
	}
	// Rule k (prev first, then cur) hashes to hashes[k] and lives in table
	// slot slots[k]. A table entry is 0 when empty, otherwise k+1 of the
	// first rule with its key; a prev entry is negated once cur matches it.
	hashes := make([]uint64, n)
	slots := make([]int32, n)
	size := 1
	for size < 2*n {
		size <<= 1
	}
	table := make([]int32, size)
	mask := uint64(size - 1)
	// Counts of distinct keys: in prev, in both, and in cur only.
	distinctPrev, inter, curOnly := 0, 0, 0
	for k := int32(0); int(k) < n; k++ {
		r := rule(k)
		h := ruleHash(r)
		hashes[k] = h
		s := h & mask
		for ; table[s] != 0; s = (s + 1) & mask {
			o := table[s]
			if o < 0 {
				o = -o
			}
			o--
			if hashes[o] == h && rule(o).Antecedent.Equal(r.Antecedent) && rule(o).Consequent.Equal(r.Consequent) {
				break
			}
		}
		slots[k] = int32(s)
		switch e := table[s]; {
		case e == 0:
			table[s] = k + 1
			if int(k) < np {
				distinctPrev++
			} else {
				curOnly++
			}
		case int(k) >= np && e > 0 && int(e) <= np:
			table[s] = -e
			inter++
		}
	}
	var d Delta
	appeared, vanished := 0, 0
	for k := range slots {
		if e := table[slots[k]]; k < np && e > 0 {
			vanished++
		} else if k >= np && int(e) > np {
			appeared++
		}
	}
	if appeared > 0 {
		d.Appeared = make([]rules.Rule, 0, appeared)
	}
	if vanished > 0 {
		d.Vanished = make([]rules.Rule, 0, vanished)
	}
	for k := range slots {
		if e := table[slots[k]]; k < np && e > 0 {
			d.Vanished = append(d.Vanished, prev[k])
		} else if k >= np && int(e) > np {
			d.Appeared = append(d.Appeared, cur[k-np])
		}
	}
	if union := distinctPrev + curOnly; union == 0 {
		d.Jaccard = 1
	} else {
		d.Jaccard = float64(inter) / float64(union)
	}
	sort.Slice(d.Appeared, func(i, j int) bool { return d.Appeared[i].Lift > d.Appeared[j].Lift })
	sort.Slice(d.Vanished, func(i, j int) bool { return d.Vanished[i].Lift > d.Vanished[j].Lift })
	return d
}

// ruleHash keys a rule by structure for Diff's join. Mixing the antecedent
// hash before folding in the consequent's keeps it order-sensitive (A⇒B and
// B⇒A hash apart), and the final avalanche spreads FNV's weak low bits over
// the table mask.
func ruleHash(r *rules.Rule) uint64 {
	h := r.Antecedent.Hash()*0x9e3779b97f4a7c15 ^ r.Consequent.Hash()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// KeywordDelta narrows a delta to the rules mentioning the keyword on
// either side — the alerting primitive: "a new rule about job failure
// appeared in the last window".
func KeywordDelta(d Delta, keyword itemset.Item) Delta {
	filter := func(rs []rules.Rule) []rules.Rule {
		var out []rules.Rule
		for _, r := range rs {
			if r.Antecedent.Contains(keyword) || r.Consequent.Contains(keyword) {
				out = append(out, r)
			}
		}
		return out
	}
	return Delta{
		Appeared: filter(d.Appeared),
		Vanished: filter(d.Vanished),
		Jaccard:  d.Jaccard,
	}
}

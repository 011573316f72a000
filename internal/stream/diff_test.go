package stream

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/trace"
	"repro/internal/transaction"
)

// diffOracle is the string-keyed Diff the hash join replaced: two
// map[string]bool sets of "antecedent=>consequent" keys. It stays here as
// the equivalence oracle only.
func diffOracle(prev, cur []rules.Rule) Delta {
	key := func(r rules.Rule) string { return r.Antecedent.Key() + "=>" + r.Consequent.Key() }
	prevKeys := make(map[string]bool, len(prev))
	for _, r := range prev {
		prevKeys[key(r)] = true
	}
	curKeys := make(map[string]bool, len(cur))
	for _, r := range cur {
		curKeys[key(r)] = true
	}
	var d Delta
	for _, r := range cur {
		if !prevKeys[key(r)] {
			d.Appeared = append(d.Appeared, r)
		}
	}
	for _, r := range prev {
		if !curKeys[key(r)] {
			d.Vanished = append(d.Vanished, r)
		}
	}
	inter := 0
	for k := range curKeys {
		if prevKeys[k] {
			inter++
		}
	}
	union := len(prevKeys) + len(curKeys) - inter
	if union == 0 {
		d.Jaccard = 1
	} else {
		d.Jaccard = float64(inter) / float64(union)
	}
	sort.Slice(d.Appeared, func(i, j int) bool { return d.Appeared[i].Lift > d.Appeared[j].Lift })
	sort.Slice(d.Vanished, func(i, j int) bool { return d.Vanished[i].Lift > d.Vanished[j].Lift })
	return d
}

// paiViews mines two consecutive sliding-window views of a seeded PAI
// trace: the window after `window` jobs, and again after `batch` more —
// the pair a serving loop diffs at one publish. Thresholds are the serving
// defaults (support 0.05, lift 1.5) with itemsets capped at maxLen.
func paiViews(tb testing.TB, seed int64, window, batch, maxLen int) (prev, cur *View) {
	tb.Helper()
	tr, err := trace.GeneratePAI(trace.Config{Jobs: window + batch, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	joined, err := tr.Scheduler.InnerJoin(tr.Node, "job_id", "job_id")
	if err != nil {
		tb.Fatal(err)
	}
	p := core.PAIPipeline()
	pre, err := p.Preprocess(joined)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := transaction.Encode(pre, transaction.EncodeOptions{Skip: p.Skip})
	if err != nil {
		tb.Fatal(err)
	}
	if db.Len() < window+batch {
		tb.Fatalf("encoded %d transactions, want %d", db.Len(), window+batch)
	}
	m, err := New(db.Catalog(), Config{WindowSize: window, MinSupport: 0.05, MaxLen: maxLen, MinLift: 1.5})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < window; i++ {
		m.Observe(db.Txn(i)...)
	}
	prev = m.View()
	for i := window; i < window+batch; i++ {
		m.Observe(db.Txn(i)...)
	}
	return prev, m.View()
}

func requireDiffEqual(t *testing.T, label string, prev, cur []rules.Rule) Delta {
	t.Helper()
	got, want := Diff(prev, cur), diffOracle(prev, cur)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Diff differs from the oracle:\n got %d appeared, %d vanished, jaccard %v\nwant %d appeared, %d vanished, jaccard %v",
			label, len(got.Appeared), len(got.Vanished), got.Jaccard, len(want.Appeared), len(want.Vanished), want.Jaccard)
	}
	return got
}

// TestDiffMatchesOracleOnPAIWindows: over 25 seeds of consecutive PAI
// windows, the hash join reproduces the string-keyed Diff exactly —
// Appeared and Vanished in the same order, the same Jaccard. Seeds
// alternate itemset caps 3 and 4 to stay fast; one benchmark-shaped pair
// (window 5000, cap 5, ~150k rules) runs outside -short.
func TestDiffMatchesOracleOnPAIWindows(t *testing.T) {
	check := func(label string, prev, cur *View) {
		d := requireDiffEqual(t, label, prev.Rules, cur.Rules)
		if len(d.Appeared) == 0 || len(d.Vanished) == 0 {
			t.Errorf("%s: the windows did not both gain and lose rules; the case is vacuous", label)
		}
		requireDiffEqual(t, label+" reversed", cur.Rules, prev.Rules)
	}
	for seed := int64(1); seed <= 25; seed++ {
		prev, cur := paiViews(t, seed, 600, 150, 3+int(seed%2))
		check(fmt.Sprintf("seed %d", seed), prev, cur)
	}
	if !testing.Short() {
		prev, cur := paiViews(t, 11, 5000, 1000, 5)
		check("window 5000", prev, cur)
	}
}

func TestDiffEdgeCases(t *testing.T) {
	set := func(items ...itemset.Item) itemset.Set { return itemset.NewSet(items...) }
	rule := func(a, c itemset.Set, supp, conf, lift float64) rules.Rule {
		return rules.Rule{Antecedent: a, Consequent: c, Support: supp, Confidence: conf, Lift: lift}
	}
	ab := rule(set(1), set(2), 0.2, 0.8, 2)
	ba := rule(set(2), set(1), 0.2, 0.6, 2)
	cd := rule(set(3), set(4, 5), 0.1, 0.5, 3)
	ef := rule(set(6, 7), set(8), 0.3, 0.9, 1.7)
	drifted := ab
	drifted.Support, drifted.Confidence, drifted.Lift = 0.25, 0.85, 2.4
	// Equal lifts exercise the sort's tie order.
	tie1 := rule(set(1, 3), set(9), 0.1, 0.5, 2)
	tie2 := rule(set(3), set(9), 0.1, 0.5, 2)
	tie3 := rule(set(4), set(9), 0.1, 0.5, 2)

	cases := []struct {
		name      string
		prev, cur []rules.Rule
	}{
		{"nil/nil", nil, nil},
		{"nil/cur", nil, []rules.Rule{ab, cd}},
		{"prev/nil", []rules.Rule{ab, cd}, nil},
		{"empty/empty", []rules.Rule{}, []rules.Rule{}},
		{"identical", []rules.Rule{ab, cd, ef}, []rules.Rule{ab, cd, ef}},
		{"disjoint", []rules.Rule{ab, cd}, []rules.Rule{ef, tie1}},
		{"A=>B vs B=>A", []rules.Rule{ab}, []rules.Rule{ba}},
		{"metric drift only", []rules.Rule{ab, cd}, []rules.Rule{drifted, cd}},
		{"duplicate in cur", []rules.Rule{cd}, []rules.Rule{ab, ab, cd, ef, ef}},
		{"duplicate in prev", []rules.Rule{ab, ab, cd, cd}, []rules.Rule{cd}},
		{"duplicate both sides", []rules.Rule{ab, ab, ef}, []rules.Rule{ab, ef, ef, ba}},
		{"lift ties", []rules.Rule{tie3, ab}, []rules.Rule{tie1, tie2, tie3, ba, cd}},
	}
	for _, tc := range cases {
		requireDiffEqual(t, tc.name, tc.prev, tc.cur)
	}

	// Pin the duplicate semantics the oracle encodes: {ab, ef} vs
	// {ab, ef, ba} share 2 of 3 distinct keys, and the duplicate ef in cur
	// is neither appeared nor counted twice.
	if d := Diff([]rules.Rule{ab, ab, ef}, []rules.Rule{ab, ef, ef, ba}); d.Jaccard != 2.0/3 || len(d.Appeared) != 1 {
		t.Errorf("duplicates = %+v, want Jaccard 2/3 and only B=>A appeared", d)
	}
}

var (
	benchViewsOnce      sync.Once
	benchPrev, benchCur *View
)

// benchViews mines the serving shape once per process: two consecutive
// window-5000 views 1000 jobs apart (~150k rules each).
func benchViews(b *testing.B) (*View, *View) {
	benchViewsOnce.Do(func() { benchPrev, benchCur = paiViews(b, 11, 5000, 1000, 5) })
	return benchPrev, benchCur
}

// BenchmarkDiff times one publish's drift diff between two consecutive
// window-5000 PAI views.
func BenchmarkDiff(b *testing.B) {
	prev, cur := benchViews(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Diff(prev.Rules, cur.Rules)
	}
	b.ReportMetric(float64(len(cur.Rules)), "rules")
}

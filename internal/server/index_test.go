package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/itemset"
	"repro/internal/rules"
	"repro/internal/stream"
)

// sortedOrderStable is the reflective sort.SliceStable permutation the
// pair sort replaced, kept as the equivalence oracle.
func sortedOrderStable(rs []rules.Rule, key func(r *rules.Rule) float64) []int32 {
	order := make([]int32, len(rs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return key(&rs[order[i]]) > key(&rs[order[j]]) })
	return order
}

// applyQueryStable is applyQuery over the oracle order: the rules are
// permuted by sortedOrderStable first, then walked in that natural order.
func applyQueryStable(rs []rules.Rule, q ruleQuery) []rules.Rule {
	var key func(r *rules.Rule) float64
	switch q.sortKey {
	case "support":
		key = bySupport
	case "confidence":
		key = byConfidence
	default:
		return applyQuery(rs, q)
	}
	sorted := make([]rules.Rule, len(rs))
	for i, ri := range sortedOrderStable(rs, key) {
		sorted[i] = rs[ri]
	}
	q.sortKey = "lift"
	return applyQuery(sorted, q)
}

func bySupport(r *rules.Rule) float64    { return r.Support }
func byConfidence(r *rules.Rule) float64 { return r.Confidence }

func requireIndexMatchesOracle(t *testing.T, label string, view *stream.View) {
	t.Helper()
	ix := NewRuleIndex(view)
	if want := sortedOrderStable(view.Rules, bySupport); !reflect.DeepEqual(ix.bySupport, want) {
		t.Fatalf("%s: support order differs from the stable sort", label)
	}
	if want := sortedOrderStable(view.Rules, byConfidence); !reflect.DeepEqual(ix.byConfidence, want) {
		t.Fatalf("%s: confidence order differs from the stable sort", label)
	}
	items := 0
	if view.Catalog != nil {
		items = view.Catalog.Len()
	}
	for it := 0; it < items; it++ {
		var want []int32
		for i, r := range view.Rules {
			if r.Antecedent.Contains(itemset.Item(it)) || r.Consequent.Contains(itemset.Item(it)) {
				want = append(want, int32(i))
			}
		}
		if got := ix.postings.For(itemset.Item(it)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: postings for item %d = %v, want the Contains scan %v", label, it, got, want)
		}
	}
}

// TestRuleIndexMatchesOracle: over 25 seeds of consecutive PAI snapshots
// (support values are count ratios, so ties are everywhere) the pair sort
// reproduces the stable sort's permutations exactly, and every posting list
// equals a linear Contains scan.
func TestRuleIndexMatchesOracle(t *testing.T) {
	seeds := int64(25)
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= seeds; seed++ {
		maxLen := 3
		if seed%5 == 0 {
			maxLen = 4
		}
		views := minedViews(t, seed, 600, maxLen, 650, 800)
		for i, v := range views {
			requireIndexMatchesOracle(t, fmt.Sprintf("seed %d view %d", seed, i), v)
		}
	}
}

// TestSortedOrderTies pins tie handling on synthetic rule lists: all keys
// equal, a handful of distinct keys in random order, and signed zeros.
func TestSortedOrderTies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n int, key func(i int) float64) []rules.Rule {
		rs := make([]rules.Rule, n)
		for i := range rs {
			rs[i] = rules.Rule{Support: key(i), Confidence: key(n - 1 - i)}
		}
		return rs
	}
	cases := map[string][]rules.Rule{
		"empty":       nil,
		"all equal":   mk(257, func(int) float64 { return 0.25 }),
		"few keys":    mk(1000, func(int) float64 { return float64(rng.Intn(4)) / 4 }),
		"signed zero": mk(64, func(i int) float64 { return []float64{0, negZero(), 0.5}[i%3] }),
		"descending":  mk(100, func(i int) float64 { return float64(100 - i) }),
	}
	for name, rs := range cases {
		for _, key := range []func(*rules.Rule) float64{bySupport, byConfidence} {
			if got, want := sortedOrder(rs, key), sortedOrderStable(rs, key); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: sortedOrder = %v, want %v", name, got, want)
			}
		}
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}

// TestRulesHugeLimitServesOnlyThePage: ?limit= beyond the rule count must
// not size the result by the limit. limit=1<<40 returns 200 with every
// rule, on both the whole-table and the keyword path, and allocates about
// what limit=<rule count> does.
func TestRulesHugeLimitServesOnlyThePage(t *testing.T) {
	snap := minedSnapshot(t, 700, 600, 3)
	h := func(w http.ResponseWriter, r *http.Request) { WriteRules(w, r, snap, RulesParams{Shard: -1}) }
	n := len(snap.View.Rules)
	allocated := func(url string) (uint64, string) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec := record(h, url, "")
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %.200s", url, rec.Code, rec.Body)
		}
		return after.TotalAlloc - before.TotalAlloc, rec.Body.String()
	}
	for _, base := range []string{"/v1/rules?sort=support", "/v1/rules?keyword=failed&prune=false"} {
		exact, wantBody := allocated(fmt.Sprintf("%s&limit=%d", base, n))
		huge, gotBody := allocated(fmt.Sprintf("%s&limit=%d", base, int64(1)<<40))
		if gotBody != wantBody {
			t.Errorf("%s: limit=1<<40 body differs from limit=%d", base, n)
		}
		if strings.Count(gotBody, `"antecedent"`) == 0 {
			t.Errorf("%s: no rules served", base)
		}
		if huge > 2*exact+1<<20 {
			t.Errorf("%s: limit=1<<40 allocated %d bytes, limit=%d only %d", base, huge, n, exact)
		}
	}
}

// steppingClock is a ManualClock that advances by step after every Now
// reading, so an interval bracketed by two readings measures exactly step.
type steppingClock struct {
	*faultinject.ManualClock
	step time.Duration
}

func (c steppingClock) Now() time.Time {
	now := c.ManualClock.Now()
	c.Advance(c.step)
	return now
}

// TestLastPublishMsFromInjectedClock: mine and publish each read the
// injected clock once at either end, so with a clock that steps on every
// reading both last_publish_ms and MineDuration are exactly one step.
func TestLastPublishMsFromInjectedClock(t *testing.T) {
	epoch := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	const step = 250 * time.Millisecond
	clock := steppingClock{faultinject.NewManualClock(epoch), step}
	s, ts := newTestServer(t, Config{
		Spec:         PAISpec(),
		WindowSize:   2000,
		Bootstrap:    300,
		MineBatch:    600,
		MineInterval: time.Hour, // batch-driven: nothing else reads the clock mid-publish
		QueueSize:    4096,
		Clock:        clock,
	})
	postChunks(t, ts.URL, paiNDJSON(t, 600, 17), 600)
	// Poll the counter, not Metrics(): reading uptime would step the clock
	// under a running publish.
	waitFor(t, "first publish", func() bool { return s.metrics.mineCount.Load() == 1 })
	if got := s.Metrics()["last_publish_ms"]; got != float64(step.Milliseconds()) {
		t.Errorf("last_publish_ms = %v, want %d", got, step.Milliseconds())
	}
	if got := s.Snapshot().MineDuration; got != step {
		t.Errorf("MineDuration = %v, want %v", got, step)
	}
}

var (
	benchIndexOnce  sync.Once
	benchIndexViews []*stream.View
)

// BenchmarkNewRuleIndex times one publish's index build over the second of
// two consecutive window-5000 PAI views 1000 jobs apart (~150k rules).
func BenchmarkNewRuleIndex(b *testing.B) {
	benchIndexOnce.Do(func() { benchIndexViews = minedViews(b, 11, 5000, 0, 5000, 6000) })
	view := benchIndexViews[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewRuleIndex(view)
	}
	b.ReportMetric(float64(len(view.Rules)), "rules")
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rules"
)

// rulesDigest canonicalises a rule set by item names, so rules mined under
// different item-id spaces and in any order digest equally, and hashes it
// with every metric at full precision.
func rulesDigest(rs []rules.RuleJSON) string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		a := append([]string(nil), r.Antecedent...)
		c := append([]string(nil), r.Consequent...)
		sort.Strings(a)
		sort.Strings(c)
		f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		lines[i] = strings.Join(a, ",") + " => " + strings.Join(c, ",") + " " + strconv.Itoa(r.Count) +
			" " + f(r.Support) + " " + f(r.Confidence) + " " + f(r.Lift) + " " + f(r.Leverage)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

package mapwalk

import "sort"

// The map walks below are each a direct `range` over a map inside an
// emit-shaped (or annotated) function; detflow reports them where their
// values reach a sink.

type pair struct {
	k string
	v int64
}

// ExportCounts walks values in map order straight into output.
func ExportCounts(m map[string]int64) []pair {
	var out []pair
	for k, v := range m {
		out = append(out, pair{k, v})
	}
	return out // want "value derived from map iteration order is returned"
}

// reportMean sums floats in map order; float addition does not associate,
// so even a reduction is order-dependent.
func reportMean(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum / float64(len(m)) // want "value derived from map iteration order is returned"
}

// DumpSorted is the blessed shape: collect keys, sort, walk sorted.
func DumpSorted(m map[string]int64) []pair {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]pair, 0, len(keys))
	for _, k := range keys {
		out = append(out, pair{k, m[k]})
	}
	return out
}

// ReportLive counts in integer space under a condition: order-invariant,
// not flagged.
func ReportLive(m map[string]int64) (live int) {
	for _, v := range m {
		if v != 0 {
			live++
		}
	}
	return live
}

// rebalance is not emit-shaped, so its free walk is out of scope.
func rebalance(m map[string]int64) {
	for k, v := range m {
		m[k] = v / 2
	}
}

// applyPlan opts in by annotation despite its neutral name.
//
//flatflash:deterministic
func applyPlan(m map[string]int64, out []string) []string {
	for k := range m {
		out = append(out, k)
		m[k] = 0
	}
	return out // want "value derived from map iteration order is returned"
}

// DrainSuppressed keeps an order-dependent walk on purpose.
func DrainSuppressed(m map[string]int64) (first string) {
	for k := range m {
		if first == "" || k < first {
			first = k
		}
	}
	//lint:ignore detflow result is the minimum key, whatever the walk order
	return first
}

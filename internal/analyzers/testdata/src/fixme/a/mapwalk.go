package a

import (
	"fmt"
	"strings"
)

// RenderCounts walks the map directly inside an emit-shaped function; the
// fix rewrites it to collect the keys, sort.Strings them, and walk the
// sorted slice (adding the "sort" import).
func RenderCounts(m map[string]int) string {
	var sb strings.Builder
	for k := range m {
		fmt.Fprintf(&sb, "%s=%d\n", k, m[k])
	}
	return sb.String()
}

// ReportKeys feeds one walk into two sinks, the print and the return: only
// the first report carries the rewrite, so -fix rewrites the walk once. The
// second fix in this file needs the same "sort" import edit as the first;
// it is applied once.
func ReportKeys(m map[int]bool) []int {
	var keys []int
	for k := range m {
		fmt.Println(k)
		keys = append(keys, k)
	}
	return keys
}

// DumpBoth walks two maps in one function; their rewrites declare distinct
// slices, keys and keys2.
func DumpBoth(a, b map[string]int) {
	for k := range a {
		fmt.Println(k)
	}
	for k := range b {
		fmt.Println(k)
	}
}

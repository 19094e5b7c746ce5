package a

import (
	"fmt"
	"strings"
)

// RenderLast walks the map into an outer k and returns the last key
// visited. It is reported, but offers no fix: the rewrite's `for k :=`
// loops would shadow the outer k, and the function would always return "".
func RenderLast(m map[string]int) (string, string) {
	var sb strings.Builder
	var k string
	for k = range m {
		fmt.Fprintf(&sb, "%s\n", k)
	}
	return sb.String(), k
}

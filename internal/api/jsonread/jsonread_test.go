package jsonread

import (
	"runtime"
	"strings"
	"testing"
)

// TestSkipDeepNestingFlatStack: an unknown field nested to the bound
// is skipped without a stack frame a level. A request body of 20 KB
// would otherwise grow its handler's stack by megabytes.
func TestSkipDeepNestingFlatStack(t *testing.T) {
	doc := []byte(strings.Repeat(`[{"a":`, maxDepth/2) + `1` + strings.Repeat(`}]`, maxDepth/2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error)
	go func() {
		r := NewReader(doc)
		err := r.Skip()
		if err == nil {
			err = r.End()
		}
		runtime.ReadMemStats(&after)
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if grown := int64(after.StackInuse) - int64(before.StackInuse); grown > 256<<10 {
		t.Fatalf("skipping %d levels grew the stacks by %d KB", maxDepth, grown>>10)
	}
	if err := NewReader([]byte(`[` + string(doc) + `]`)).Skip(); err == nil {
		t.Fatalf("%d levels: want the nesting bound's error", maxDepth+1)
	}
}

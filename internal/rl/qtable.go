// Package rl provides the tabular reinforcement-learning machinery
// ReASSIgN builds on: a Q table over (activation, VM) schedule
// actions, exploration policies (the paper's ε convention and
// Boltzmann softmax for ablation), parameter schedules, and episode
// persistence so learning progresses across workflow executions.
//
// A Table covers the action space a learner knows up front — tasks
// [0, numTasks) × VMs [0, numVMs) — with Q(task, vm) at a fixed
// offset in a contiguous row, which gives O(1) access without hashing
// and lets the row/rectangle maxima (Best, MaxRect, ArgmaxRect) run as
// tight loops over contiguous memory. Rows are grouped into
// cache-sized bands allocated lazily on first touch: a small table is
// one band sized to its rows, and a 10k-activation × 1000-VM problem
// only pays for the rows it visits while row scans stay
// cache-resident.
//
// Entries materialise lazily on first access, drawing random initial
// values from the table's source in access order, so the same seed
// and the same access sequence give bit-identical values whatever the
// band layout. Keys outside the rectangle (VM IDs past the fleet, or
// entries loaded from a table of another shape) spill into an overflow
// map. Save/Load use one JSON format, so a
// persisted table loads into a table of any shape.
package rl

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"

	"reassign/internal/randsrc"
)

// Key identifies one schedule action: "run activation Task on VM".
// Task is the activation's dense index within its workflow; VM is the
// fleet VM ID.
type Key struct {
	Task int `json:"task"`
	VM   int `json:"vm"`
}

// bandTargetBytes sizes one band's value array: small enough that a
// band stays cache-resident while Best/MaxRect scan its rows, large
// enough to amortise per-band bookkeeping.
const bandTargetBytes = 256 << 10

// band is one group of consecutive task rows. vals is nil until the
// band is first touched; seen is a bitset over vals tracking which
// cells have materialised.
type band struct {
	vals []float64
	seen []uint64
}

func (b *band) isSeen(off int) bool { return b.seen[off>>6]&(1<<(uint(off)&63)) != 0 }
func (b *band) mark(off int)        { b.seen[off>>6] |= 1 << (uint(off) & 63) }

// Table is the evaluation table Q: schedule-action → expected reward.
// Per the paper's Algorithm 2 it is initialised at random; entries
// materialise lazily on first access so the table never stores
// untouched pairs. See the package comment for the layout.
type Table struct {
	// Row task lives in band task>>bandShift at row offset
	// task&(bandRows-1); bands are allocated on first touch.
	bands     []band
	bandShift uint
	bandRows  int
	seenN     int
	numTasks  int
	numVMs    int
	// overflow holds the entries outside the rectangle.
	overflow map[Key]float64

	// Row-max cache for the MaxRect bootstrap fast path. rowN counts
	// materialised cells per row; rowOK[t] means (rowMax[t], rowArg[t])
	// hold the row's maximum and its first-attaining column. A row is
	// only ever cached once fully materialised (rowN[t] == numVMs), so
	// lazy draws can never invalidate a valid cache entry; writes
	// either fold into the cached maximum or clear rowOK for a lazy
	// rescan.
	rowN   []int32
	rowMax []float64
	rowArg []int32
	rowOK  []bool

	rng *rand.Rand
	// initSpan scales random initialisation: new entries are uniform
	// in [0, initSpan). Zero yields zero-initialised entries.
	initSpan float64
}

// NewTable returns a table covering tasks [0, numTasks) × VMs
// [0, numVMs) whose entries initialise uniformly in [0, initSpan)
// from rng (a nil rng falls back to a fixed seed). Rows are grouped
// into bands of at most 256 KiB, each allocated on first touch. Keys
// outside the rectangle still work: they spill into an overflow map.
// Both dimensions must be positive.
func NewTable(numTasks, numVMs int, rng *rand.Rand, initSpan float64) *Table {
	if numTasks <= 0 || numVMs <= 0 {
		panic(fmt.Sprintf("rl: table (%d, %d): dimensions must be positive", numTasks, numVMs))
	}
	rowsPerBand := bandTargetBytes / (numVMs * 8)
	shift := uint(0)
	for 1<<(shift+1) <= rowsPerBand {
		shift++
	}
	return newRect(numTasks, numVMs, shift, rng, initSpan)
}

// newRect builds a table with 1<<bandShift rows per band and no bands
// allocated yet.
func newRect(numTasks, numVMs int, bandShift uint, rng *rand.Rand, initSpan float64) *Table {
	if rng == nil {
		rng = rand.New(randsrc.New(1))
	}
	bandRows := 1 << bandShift
	nBands := (numTasks + bandRows - 1) / bandRows
	return &Table{
		bands:     make([]band, nBands),
		bandShift: bandShift,
		bandRows:  bandRows,
		numTasks:  numTasks,
		numVMs:    numVMs,
		rowN:      make([]int32, numTasks),
		rowMax:    make([]float64, numTasks),
		rowArg:    make([]int32, numTasks),
		rowOK:     make([]bool, numTasks),
		rng:       rng,
		initSpan:  initSpan,
	}
}

// Dims returns the rectangle.
func (t *Table) Dims() (numTasks, numVMs int) { return t.numTasks, t.numVMs }

// draw produces one random initial value.
func (t *Table) draw() float64 {
	if t.initSpan > 0 {
		return t.rng.Float64() * t.initSpan
	}
	return 0
}

// inRect reports whether k falls inside the rectangle.
func (t *Table) inRect(k Key) bool {
	return k.Task >= 0 && k.Task < t.numTasks && k.VM >= 0 && k.VM < t.numVMs
}

// allocBand allocates band bi's storage (sized to the rows it
// actually covers, which may be fewer than bandRows in the last
// band) and returns it.
func (t *Table) allocBand(bi int) *band {
	b := &t.bands[bi]
	rows := t.bandRows
	if start := bi << t.bandShift; start+rows > t.numTasks {
		rows = t.numTasks - start
	}
	b.vals = make([]float64, rows*t.numVMs)
	b.seen = make([]uint64, (len(b.vals)+63)/64)
	return b
}

// locate returns the band holding task (allocating it on first
// touch) and the intra-band offset of the row's first cell.
func (t *Table) locate(task int) (b *band, base int) {
	bi := task >> t.bandShift
	b = &t.bands[bi]
	if b.vals == nil {
		b = t.allocBand(bi)
	}
	return b, (task - bi<<t.bandShift) * t.numVMs
}

// materialise draws the initial value of task's unseen cell at band
// offset off, stores it and returns it.
func (t *Table) materialise(b *band, off, task int) float64 {
	v := t.draw()
	b.vals[off] = v
	b.mark(off)
	t.seenN++
	t.rowN[task]++
	return v
}

// overflowValue is Value for a key outside the rectangle.
func (t *Table) overflowValue(k Key) float64 {
	if v, ok := t.overflow[k]; ok {
		return v
	}
	v := t.draw()
	t.setOverflow(k, v)
	return v
}

func (t *Table) setOverflow(k Key, v float64) {
	if t.overflow == nil {
		t.overflow = make(map[Key]float64)
	}
	t.overflow[k] = v
}

// updateRowCache folds an in-rectangle write Q(task, vm) = v into the
// row-max cache. Only rows with a valid cache entry need maintenance:
// a larger value (or an equal value at a lower column, matching the
// scan's first-wins tie order) moves the maximum; lowering the cached
// argmax cell invalidates the entry for a lazy rescan.
func (t *Table) updateRowCache(task, vm int, v float64) {
	if !t.rowOK[task] {
		return
	}
	switch {
	case v > t.rowMax[task] || (v == t.rowMax[task] && int32(vm) < t.rowArg[task]):
		t.rowMax[task], t.rowArg[task] = v, int32(vm)
	case int32(vm) == t.rowArg[task] && v < t.rowMax[task]:
		t.rowOK[task] = false
	}
}

// rescanRow recomputes the row-max cache entry for a fully
// materialised row.
func (t *Table) rescanRow(task int) {
	b, base := t.locate(task)
	best, arg := math.Inf(-1), 0
	for vm := 0; vm < t.numVMs; vm++ {
		if v := b.vals[base+vm]; v > best {
			best, arg = v, vm
		}
	}
	t.rowMax[task], t.rowArg[task], t.rowOK[task] = best, int32(arg), true
}

// Value returns Q(k), materialising a random initial value on first
// access.
func (t *Table) Value(k Key) float64 {
	if !t.inRect(k) {
		return t.overflowValue(k)
	}
	b, base := t.locate(k.Task)
	off := base + k.VM
	if !b.isSeen(off) {
		return t.materialise(b, off, k.Task)
	}
	return b.vals[off]
}

// Peek returns Q(k) without materialising it; ok is false for unseen
// entries.
func (t *Table) Peek(k Key) (v float64, ok bool) {
	if !t.inRect(k) {
		v, ok = t.overflow[k]
		return v, ok
	}
	bi := k.Task >> t.bandShift
	b := &t.bands[bi]
	if b.vals == nil {
		return 0, false
	}
	off := (k.Task-bi<<t.bandShift)*t.numVMs + k.VM
	if !b.isSeen(off) {
		return 0, false
	}
	return b.vals[off], true
}

// Set overwrites Q(k).
func (t *Table) Set(k Key, v float64) {
	if !t.inRect(k) {
		t.setOverflow(k, v)
		return
	}
	b, base := t.locate(k.Task)
	off := base + k.VM
	if !b.isSeen(off) {
		b.mark(off)
		t.seenN++
		t.rowN[k.Task]++
	}
	b.vals[off] = v
	t.updateRowCache(k.Task, k.VM, v)
}

// Add increments Q(k) by delta (materialising first).
func (t *Table) Add(k Key, delta float64) { t.Set(k, t.Value(k)+delta) }

// Len returns the number of materialised entries.
func (t *Table) Len() int { return t.seenN + len(t.overflow) }

// Best returns the VM with the highest Q value for the task among the
// candidates, ties broken by lowest VM ID for determinism. It panics
// on an empty candidate list. This is the row-max primitive: one pass
// over the task's contiguous row.
func (t *Table) Best(task int, vms []int) (vm int, value float64) {
	if len(vms) == 0 {
		panic("rl: Best with no candidate VMs")
	}
	inRow := task >= 0 && task < t.numTasks
	var b *band
	var base int
	if inRow {
		b, base = t.locate(task)
	}
	best, bestV := -1, math.Inf(-1)
	for _, id := range vms {
		var v float64
		switch {
		case !inRow || id < 0 || id >= t.numVMs:
			v = t.overflowValue(Key{Task: task, VM: id})
		case b.isSeen(base + id):
			v = b.vals[base+id]
		default:
			v = t.materialise(b, base+id, task)
		}
		if v > bestV || (v == bestV && (best == -1 || id < best)) {
			best, bestV = id, v
		}
	}
	return best, bestV
}

// MaxOver returns the maximum Q value over the given keys, or 0 when
// keys is empty (the terminal-state convention).
func (t *Table) MaxOver(keys []Key) float64 {
	if len(keys) == 0 {
		return 0
	}
	best := math.Inf(-1)
	for _, k := range keys {
		if v := t.Value(k); v > best {
			best = v
		}
	}
	return best
}

// MaxRect returns the maximum Q value over the tasks × vms cross
// product, materialising entries in task-major order (the same order
// a nested Value loop would), or 0 when either list is empty. Each
// task scans its contiguous row; when vms spans every column the scan
// consults the row-max cache, making the Q-learning bootstrap O(1) per
// already-cached row.
func (t *Table) MaxRect(tasks, vms []int) float64 {
	if len(tasks) == 0 || len(vms) == 0 {
		return 0
	}
	_, v := t.argmaxRect(tasks, vms)
	return v
}

// ArgmaxRect returns the first key attaining the maximum Q value over
// the tasks × vms cross product, scanned in task-major order, along
// with that value. It panics when either list is empty.
func (t *Table) ArgmaxRect(tasks, vms []int) (Key, float64) {
	if len(tasks) == 0 || len(vms) == 0 {
		panic("rl: ArgmaxRect over an empty rectangle")
	}
	return t.argmaxRect(tasks, vms)
}

func (t *Table) argmaxRect(tasks, vms []int) (Key, float64) {
	bestKey := Key{Task: tasks[0], VM: vms[0]}
	bestV := math.Inf(-1)
	// fullCols: vms is exactly the identity [0, numVMs) — the common
	// bootstrap shape — which permits the row-max cache.
	allIn, fullCols := true, len(vms) == t.numVMs
	for i, vm := range vms {
		if vm < 0 || vm >= t.numVMs {
			allIn, fullCols = false, false
			break
		}
		fullCols = fullCols && vm == i
	}
	for _, task := range tasks {
		if !allIn || task < 0 || task >= t.numTasks {
			for _, vm := range vms {
				if v := t.Value(Key{Task: task, VM: vm}); v > bestV {
					bestV, bestKey = v, Key{Task: task, VM: vm}
				}
			}
			continue
		}
		if fullCols && int(t.rowN[task]) == t.numVMs {
			if !t.rowOK[task] {
				t.rescanRow(task)
			}
			if v := t.rowMax[task]; v > bestV {
				bestV, bestKey = v, Key{Task: task, VM: int(t.rowArg[task])}
			}
			continue
		}
		b, base := t.locate(task)
		rowBest, rowArg := math.Inf(-1), -1
		for _, vm := range vms {
			off := base + vm
			v := b.vals[off]
			if !b.isSeen(off) {
				v = t.materialise(b, off, task)
			}
			if v > rowBest {
				rowBest, rowArg = v, vm
			}
		}
		if fullCols {
			t.rowMax[task], t.rowArg[task], t.rowOK[task] = rowBest, int32(rowArg), true
		}
		if rowBest > bestV {
			bestV, bestKey = rowBest, Key{Task: task, VM: rowArg}
		}
	}
	return bestKey, bestV
}

// RowMax returns the cached maximum of task's row. ok is true only
// when every cell of the row has materialised and the cache entry is
// current — the state a MaxRect/ArgmaxRect over all columns leaves
// every row it visits in. The value then stays the row's maximum until
// the next write to the row, so a caller that knows no write
// intervenes (core's deferred TD stores) can hold on to it instead of
// asking again.
func (t *Table) RowMax(task int) (max float64, ok bool) {
	if task < 0 || task >= t.numTasks || !t.rowOK[task] || int(t.rowN[task]) != t.numVMs {
		return 0, false
	}
	return t.rowMax[task], true
}

// Mean returns the mean of materialised values (0 when empty).
func (t *Table) Mean() float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	var s float64
	for bi := range t.bands {
		b := &t.bands[bi]
		if b.vals == nil {
			continue
		}
		for off, v := range b.vals {
			if b.isSeen(off) {
				s += v
			}
		}
	}
	for _, v := range t.overflow {
		s += v
	}
	return s / float64(n)
}

// Snapshot returns a deterministic (sorted) copy of the materialised
// table contents.
func (t *Table) Snapshot() []Entry {
	out := make([]Entry, 0, t.Len())
	for bi := range t.bands {
		b := &t.bands[bi]
		if b.vals == nil {
			continue
		}
		start := bi << t.bandShift
		for off, v := range b.vals {
			if b.isSeen(off) {
				out = append(out, Entry{Key: Key{Task: start + off/t.numVMs, VM: off % t.numVMs}, Value: v})
			}
		}
	}
	if len(t.overflow) == 0 {
		return out // band-major rectangle iteration is already sorted
	}
	for k, v := range t.overflow {
		out = append(out, Entry{Key: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Task != out[j].Key.Task {
			return out[i].Key.Task < out[j].Key.Task
		}
		return out[i].Key.VM < out[j].Key.VM
	})
	return out
}

// Entry is one (key, value) pair of the table.
type Entry struct {
	Key   Key     `json:"key"`
	Value float64 `json:"value"`
}

// Save writes the table as JSON, preserving learned values across
// episodes and processes (the paper's cross-episode learning state).
// The format does not record the rectangle.
func (t *Table) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Snapshot())
}

// Load replaces the table contents with a previously saved snapshot.
// The snapshot may come from a table of any shape; entries outside
// this table's rectangle land in its overflow map.
func (t *Table) Load(r io.Reader) error {
	var entries []Entry
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return fmt.Errorf("rl: load table: %w", err)
	}
	for bi := range t.bands {
		b := &t.bands[bi]
		if b.vals != nil {
			clear(b.vals)
			clear(b.seen)
		}
	}
	clear(t.rowN)
	clear(t.rowOK)
	t.seenN = 0
	t.overflow = nil
	for _, e := range entries {
		t.Set(e.Key, e.Value)
	}
	return nil
}

// SaveFile writes the table to a JSON file.
func (t *Table) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a table previously written by SaveFile.
func (t *Table) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.Load(f)
}

// TDUpdate applies the temporal-difference update
// Q(k) ← Q(k) + α·(reward + γ·next − Q(k)) and returns the new value.
// It is the single update rule behind Algorithm 2 (next is
// max_a' Q(s', a') for Q-learning, a policy sample for SARSA), and
// the hot-path primitive: one lookup and one store.
func (t *Table) TDUpdate(k Key, alpha, reward, gamma, next float64) float64 {
	if !t.inRect(k) {
		q := t.overflowValue(k)
		q += alpha * (reward + gamma*next - q)
		t.overflow[k] = q
		return q
	}
	b, base := t.locate(k.Task)
	off := base + k.VM
	var q float64
	if !b.isSeen(off) {
		q = t.draw()
		b.mark(off)
		t.seenN++
		t.rowN[k.Task]++
	} else {
		q = b.vals[off]
	}
	q += alpha * (reward + gamma*next - q)
	b.vals[off] = q
	t.updateRowCache(k.Task, k.VM, q)
	return q
}

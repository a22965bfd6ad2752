package rl

import (
	"math"
	"math/rand"
	"sort"
)

// mapTable is the reference Table is tested against: Q as a plain map
// that draws an entry's initial value on its first access, in access
// order — the Table's contract without its layout.
type mapTable struct {
	values   map[Key]float64
	rng      *rand.Rand
	initSpan float64
}

func newMapTable(rng *rand.Rand, initSpan float64) *mapTable {
	return &mapTable{values: map[Key]float64{}, rng: rng, initSpan: initSpan}
}

func (m *mapTable) Value(k Key) float64 {
	v, ok := m.values[k]
	if !ok {
		if m.initSpan > 0 {
			v = m.rng.Float64() * m.initSpan
		}
		m.values[k] = v
	}
	return v
}

func (m *mapTable) Set(k Key, v float64) { m.values[k] = v }
func (m *mapTable) Len() int             { return len(m.values) }

func (m *mapTable) TDUpdate(k Key, alpha, reward, gamma, next float64) float64 {
	q := m.Value(k)
	q += alpha * (reward + gamma*next - q)
	m.values[k] = q
	return q
}

func (m *mapTable) Best(task int, vms []int) (int, float64) {
	best, bestV := -1, math.Inf(-1)
	for _, id := range vms {
		if v := m.Value(Key{Task: task, VM: id}); v > bestV || (v == bestV && (best == -1 || id < best)) {
			best, bestV = id, v
		}
	}
	return best, bestV
}

func (m *mapTable) MaxOver(keys []Key) float64 {
	if len(keys) == 0 {
		return 0
	}
	best := math.Inf(-1)
	for _, k := range keys {
		if v := m.Value(k); v > best {
			best = v
		}
	}
	return best
}

func (m *mapTable) MaxRect(tasks, vms []int) float64 {
	keys := make([]Key, 0, len(tasks)*len(vms))
	for _, task := range tasks {
		for _, vm := range vms {
			keys = append(keys, Key{Task: task, VM: vm})
		}
	}
	return m.MaxOver(keys)
}

func (m *mapTable) Snapshot() []Entry {
	out := make([]Entry, 0, len(m.values))
	for k, v := range m.values {
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

// qtable is what the equivalence tests drive: the methods Table and
// mapTable share.
type qtable interface {
	Value(Key) float64
	Set(Key, float64)
	Len() int
	TDUpdate(k Key, alpha, reward, gamma, next float64) float64
	Best(task int, vms []int) (int, float64)
	MaxOver([]Key) float64
	MaxRect(tasks, vms []int) float64
	Snapshot() []Entry
}

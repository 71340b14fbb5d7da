package runtime

// Memoization (Section 6.2): while speculating, the parser records, per
// (rule, start position), whether the rule matched and where it stopped,
// so no input position is ever parsed by the same production twice —
// Ford's packrat guarantee. ANTLR (and this runtime) memoizes only while
// speculating, which is why less backtracking means a smaller cache.

// MemoFailed marks a (rule, position) pair that failed to match.
const MemoFailed = -2

// MemoTable memoizes speculative rule invocations.
type MemoTable struct {
	// byRule[rule][start] = stop index of a successful speculative match,
	// or MemoFailed. Synpred fragments get their own rows after the
	// parser rules.
	byRule []map[int]int
	hits   int
	misses int
	stores int
}

// NewMemoTable returns a table with rows rules.
func NewMemoTable(rows int) *MemoTable {
	return &MemoTable{byRule: make([]map[int]int, rows)}
}

// Reset empties the table for another parse and zeroes its counters.
// Each row keeps its storage, so a reused table stops allocating once
// it has grown to the size its parses need.
func (m *MemoTable) Reset() {
	for _, row := range m.byRule {
		clear(row)
	}
	m.hits, m.misses, m.stores = 0, 0, 0
}

// Get looks up a prior speculative parse of rule at start. ok reports
// whether an entry exists; stop is the recorded stop index or MemoFailed.
func (m *MemoTable) Get(rule, start int) (stop int, ok bool) {
	if m == nil || rule < 0 || rule >= len(m.byRule) || m.byRule[rule] == nil {
		if m != nil {
			m.misses++
		}
		return 0, false
	}
	stop, ok = m.byRule[rule][start]
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	return stop, ok
}

// Put records the outcome of a speculative parse.
func (m *MemoTable) Put(rule, start, stop int) {
	if m == nil || rule < 0 || rule >= len(m.byRule) {
		return
	}
	if m.byRule[rule] == nil {
		m.byRule[rule] = make(map[int]int)
	}
	m.byRule[rule][start] = stop
	m.stores++
}

// Entries returns the number of memoized outcomes, the cache-size metric
// the paper discusses (O(|N|·n) worst case).
func (m *MemoTable) Entries() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, row := range m.byRule {
		n += len(row)
	}
	return n
}

// Hits returns successful lookups.
func (m *MemoTable) Hits() int { return m.hits }

// Misses returns failed lookups.
func (m *MemoTable) Misses() int { return m.misses }

// Stores returns how many outcomes Put has recorded, including
// overwrites of an existing (rule, start) entry — which is why Stores
// can exceed Entries.
func (m *MemoTable) Stores() int { return m.stores }

// PruneBelow drops every entry whose start position is below min.
// Streaming parses call it when the token window slides: positions the
// parser has retired can never be looked up again, so their verdicts
// are dead weight.
func (m *MemoTable) PruneBelow(min int) {
	if m == nil {
		return
	}
	for _, row := range m.byRule {
		for start := range row {
			if start < min {
				delete(row, start)
			}
		}
	}
}

// Rebase adjusts the table for an edit that replaced token positions
// [damStart, damEnd) with damEnd-damStart+delta tokens. Entries are
// kept only when the speculation that produced them provably never
// examined a damaged token: margin is the parser's observed maximum
// lookahead depth, so a successful entry spanning [start, stop)
// examined at most margin-1 tokens past its stop — it survives in
// place when stop+margin <= damStart. Entries starting at or after the
// damage shift by delta: they examined only tokens that moved
// uniformly with the edit. Everything else is dropped, including every
// failed entry left of the damage — a failed speculation scans
// arbitrarily far before failing, so its extent cannot be bounded.
// Returns how many entries were kept and dropped.
func (m *MemoTable) Rebase(damStart, damEnd, delta, margin int) (kept, dropped int) {
	if m == nil {
		return 0, 0
	}
	if margin < 1 {
		margin = 1
	}
	for rule, row := range m.byRule {
		if len(row) == 0 {
			continue
		}
		next := make(map[int]int, len(row))
		for start, stop := range row {
			switch {
			case stop != MemoFailed && start < damStart && stop+margin <= damStart:
				next[start] = stop
				kept++
			case start >= damEnd:
				if stop == MemoFailed {
					next[start+delta] = stop
				} else {
					next[start+delta] = stop + delta
				}
				kept++
			default:
				dropped++
			}
		}
		m.byRule[rule] = next
	}
	return kept, dropped
}

package eventlog

// Interner maps strings to dense uint32 IDs in first-appearance order. It
// is the dictionary behind the log's columnar backing store (and the frame
// encoder): error logs repeat a small set of component and message
// strings endlessly, so each distinct string is stored exactly once and
// every event row carries a 4-byte index instead of a 16-byte string
// header pointing at its own heap copy.
//
// IDs are stable: once assigned, an ID never changes and Lookup(id)
// returns the exact string that was interned. The zero value is an empty,
// ready-to-use interner.
type Interner struct {
	strs []string
	idx  map[string]uint32

	// Single-entry hit cache. Replay and simulator append paths hand the
	// same string header over and over (dictionary-decoded traces reuse
	// one allocation per distinct string), and Go's string comparison
	// short-circuits on equal data pointers, so the common repeat costs a
	// pointer compare instead of a map lookup.
	lastS  string
	lastID uint32
}

// Intern returns the ID for s, assigning the next dense ID on first sight.
func (in *Interner) Intern(s string) uint32 {
	if len(in.strs) > 0 && s == in.lastS {
		return in.lastID
	}
	if id, ok := in.idx[s]; ok {
		in.lastS, in.lastID = s, id
		return id
	}
	if in.idx == nil {
		in.idx = make(map[string]uint32)
	}
	id := uint32(len(in.strs))
	in.strs = append(in.strs, s)
	in.idx[s] = id
	in.lastS, in.lastID = s, id
	return id
}

// Lookup returns the string for a previously assigned ID. The caller must
// pass an ID obtained from Intern on this interner (or a Clone ancestor);
// anything else panics like any out-of-range index.
func (in *Interner) Lookup(id uint32) string { return in.strs[id] }

// Len returns the number of distinct strings interned.
func (in *Interner) Len() int { return len(in.strs) }

// Strings returns the dictionary in ID order as a read-only view: index i
// is the string with ID i. The caller must not modify it.
func (in *Interner) Strings() []string { return in.strs }

// Clone returns an independent copy: both sides can keep interning
// without affecting each other, and all previously assigned IDs remain
// valid in both.
func (in *Interner) Clone() Interner {
	out := Interner{lastS: in.lastS, lastID: in.lastID}
	if len(in.strs) > 0 {
		out.strs = append(make([]string, 0, len(in.strs)), in.strs...)
		out.idx = make(map[string]uint32, len(in.idx))
		for s, id := range in.idx {
			out.idx[s] = id
		}
	}
	return out
}

package analysis

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact propagation: the cross-package half of the framework. An analyzer
// that declares FactTypes may attach typed facts to exported objects while
// analyzing the defining package; when a later package in dependency order
// is analyzed, the same analyzer can import those facts at call sites. This
// mirrors the
// golang.org/x/tools/go/analysis fact model: facts are the only state
// that crosses a package boundary, and they are serialized per package —
// gob-encoded here, exactly as x/tools does for its -vettool protocol —
// so a fact that cannot round-trip through an export file can never be
// relied on. The runner encodes a package's facts the moment its last
// analyzer finishes and decodes them on first import; analyzers only ever
// see the decoded copy, never the live objects of another package's pass.

// Fact is a typed datum attached to an object by one analyzer and visible
// to the same analyzer in downstream packages. Implementations must be
// pointers to gob-encodable structs; AFact is a marker.
type Fact interface{ AFact() }

// factKey names one fact slot: the canonical object key plus the concrete
// fact type.
type factKey struct {
	Object string
	Type   string // reflect type string of the fact pointer
}

// factEntry is the gob wire form of one exported fact.
type factEntry struct {
	Object string
	Fact   Fact
}

// objectFactKey canonicalizes an object for cross-package lookup. The
// types.Object identities of a package analyzed directly and the same
// package type-checked as a dependency differ, so facts are keyed by
// stable names instead: a function's FullName ("pkg.F", "(pkg.T).M"),
// or pkgPath.Name for other objects.
func objectFactKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// factSet holds the facts one analyzer exported for one package, both
// live (during the defining package's pass) and decoded (after import).
type factSet struct {
	facts map[factKey]Fact
}

func newFactSet() *factSet { return &factSet{facts: map[factKey]Fact{}} }

func (s *factSet) put(objKey string, f Fact) {
	s.facts[factKey{Object: objKey, Type: reflect.TypeOf(f).String()}] = f
}

// get copies the stored fact for (objKey, type of dst) into dst and
// reports whether one existed.
func (s *factSet) get(objKey string, dst Fact) bool {
	if s == nil {
		return false
	}
	f, ok := s.facts[factKey{Object: objKey, Type: reflect.TypeOf(dst).String()}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	fv := reflect.ValueOf(f)
	if dv.Type() != fv.Type() || dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(fv.Elem())
	return true
}

// encode serializes the set as a deterministic gob stream (entries in
// sorted key order, so equal fact sets encode to equal bytes).
func (s *factSet) encode() ([]byte, error) {
	entries := make([]factEntry, 0, len(s.facts))
	for k, f := range s.facts {
		entries = append(entries, factEntry{Object: k.Object, Fact: f})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Object != entries[j].Object {
			return entries[i].Object < entries[j].Object
		}
		return reflect.TypeOf(entries[i].Fact).String() < reflect.TypeOf(entries[j].Fact).String()
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(entries); err != nil {
		return nil, fmt.Errorf("analysis: encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// decodeFactSet rebuilds a factSet from its gob encoding. The fact types
// must have been registered (the runner registers every FactType of every
// analyzer in the run).
func decodeFactSet(blob []byte) (*factSet, error) {
	var entries []factEntry
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&entries); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts: %v", err)
	}
	s := newFactSet()
	for _, e := range entries {
		s.put(e.Object, e.Fact)
	}
	return s, nil
}

// factStore is the runner's cross-package fact archive: one gob blob per
// (package, analyzer), written when the package's analysis completes and
// decoded lazily on first import by a downstream package.
type factStore struct {
	blobs   map[string]map[string][]byte   // pkgPath -> analyzer -> gob
	decoded map[string]map[string]*factSet // pkgPath -> analyzer -> set
}

func newFactStore() *factStore {
	return &factStore{
		blobs:   map[string]map[string][]byte{},
		decoded: map[string]map[string]*factSet{},
	}
}

// register makes every declared fact type of the analyzers gob-decodable
// and rejects non-pointer fact types up front.
func (st *factStore) register(analyzers []*Analyzer) error {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			if reflect.TypeOf(f).Kind() != reflect.Pointer {
				return fmt.Errorf("analysis: %s: fact type %T is not a pointer", a.Name, f)
			}
			gob.Register(f)
		}
	}
	return nil
}

// seal encodes and archives the facts the analyzer exported for pkgPath.
func (st *factStore) seal(pkgPath, analyzer string, s *factSet) error {
	if len(s.facts) == 0 {
		return nil
	}
	blob, err := s.encode()
	if err != nil {
		return err
	}
	if st.blobs[pkgPath] == nil {
		st.blobs[pkgPath] = map[string][]byte{}
	}
	st.blobs[pkgPath][analyzer] = blob
	return nil
}

// open returns the decoded fact set for (pkgPath, analyzer), or nil when
// the package exported none.
func (st *factStore) open(pkgPath, analyzer string) (*factSet, error) {
	if s, ok := st.decoded[pkgPath][analyzer]; ok {
		return s, nil
	}
	blob, ok := st.blobs[pkgPath][analyzer]
	if !ok {
		return nil, nil
	}
	s, err := decodeFactSet(blob)
	if err != nil {
		return nil, err
	}
	if st.decoded[pkgPath] == nil {
		st.decoded[pkgPath] = map[string]*factSet{}
	}
	st.decoded[pkgPath][analyzer] = s
	return s, nil
}

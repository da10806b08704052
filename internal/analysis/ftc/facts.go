// Facts: the cross-package channel of the interprocedural framework
// (DESIGN.md §12). An analyzer exports typed facts on package-level
// objects (functions, mostly) or on the package itself; the driver
// analyzes packages in dependency order, so by the time a package is
// analyzed every fact of its (transitive) imports is present in the
// FactStore. Mirrors golang.org/x/tools/go/analysis facts, with one
// deliberate simplification: facts attach only to *package-level*
// objects and are keyed by a stable string encoding of the object
// (package path + name, or receiver type + method name) instead of
// objectpath. That makes a fact survive the round trip through gc
// export data — the same function seen from source in its home package
// and through an importer downstream maps to the same key — and makes
// serialization (gob) trivial for the vet protocol's .vetx files.
package ftc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a typed datum exported by one analyzer for consumption by
// downstream passes (same package or importers). Implementations must
// be pointers to gob-encodable structs and list themselves in their
// analyzer's FactTypes.
type Fact interface {
	AFact() // marker
}

// ObjectKey returns the stable cross-package encoding of a
// package-level object: "Fn" for a function or var, "(T).M" /
// "(*T).M" for methods. ok is false for objects facts cannot attach
// to (locals, non-package-level, nil).
func ObjectKey(obj types.Object) (key string, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, isFn := obj.(*types.Func); isFn {
		fn = fn.Origin() // normalize generic instantiations
		sig, isSig := fn.Type().(*types.Signature)
		if isSig && sig.Recv() != nil {
			t := sig.Recv().Type()
			ptr := false
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
				ptr = true
			}
			named, isNamed := t.(*types.Named)
			if !isNamed {
				return "", false
			}
			if ptr {
				return "(*" + named.Obj().Name() + ")." + fn.Name(), true
			}
			return "(" + named.Obj().Name() + ")." + fn.Name(), true
		}
		if fn.Parent() != nil && fn.Parent() != fn.Pkg().Scope() {
			return "", false // closure-scoped
		}
		return fn.Name(), true
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// factKey identifies one fact slot: one fact of each concrete type per
// object (objKey=="" means the package itself).
type factKey struct {
	pkgPath string
	objKey  string
	typ     string
}

func typeName(f Fact) string { return reflect.TypeOf(f).String() }

// FactStore holds every fact produced while analyzing one package,
// plus those decoded from its dependencies' serialized facts.
type FactStore struct {
	facts map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factKey]Fact{}}
}

func (s *FactStore) put(pkgPath, objKey string, f Fact) {
	s.facts[factKey{pkgPath, objKey, typeName(f)}] = f
}

// get copies the stored fact (if any) into ptr, which must be a
// pointer to the same concrete type.
func (s *FactStore) get(pkgPath, objKey string, ptr Fact) bool {
	f, ok := s.facts[factKey{pkgPath, objKey, typeName(ptr)}]
	if !ok {
		return false
	}
	reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// encodedFact is the serialized form of one fact.
type encodedFact struct {
	PkgPath string
	ObjKey  string
	Fact    Fact
}

// RegisterFactTypes registers every fact type the analyzers declare
// with gob, so stores round-trip through Encode/Decode. Idempotent.
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range Expand(analyzers) {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// Encode serializes every fact in the store — the package's own and
// those it inherited, so one file carries the whole import closure — in
// a deterministic order.
func (s *FactStore) Encode() ([]byte, error) {
	out := make([]encodedFact, 0, len(s.facts))
	for k, f := range s.facts {
		out = append(out, encodedFact{k.pkgPath, k.objKey, f})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PkgPath != out[j].PkgPath {
			return out[i].PkgPath < out[j].PkgPath
		}
		if out[i].ObjKey != out[j].ObjKey {
			return out[i].ObjKey < out[j].ObjKey
		}
		return typeName(out[i].Fact) < typeName(out[j].Fact)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(out); err != nil {
		return nil, fmt.Errorf("encoding facts: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeFacts merges serialized facts into the store.
func (s *FactStore) DecodeFacts(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var in []encodedFact
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return fmt.Errorf("decoding facts: %w", err)
	}
	for _, e := range in {
		s.put(e.PkgPath, e.ObjKey, e.Fact)
	}
	return nil
}

// --- Pass-level fact API ---

// ExportObjectFact attaches fact to obj, which must be a package-level
// object of the package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v is not from the package under analysis", p.Analyzer.Name, obj))
	}
	key, ok := ObjectKey(obj)
	if !ok {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v is not package-level", p.Analyzer.Name, obj))
	}
	p.facts.put(p.Pkg.Path(), key, fact)
}

// ImportObjectFact copies the fact of ptr's type attached to obj (from
// any package analyzed earlier, including this one) into ptr.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), key, ptr)
}

// ImportFactByKey copies the fact of ptr's type attached to the object
// identified by (pkgPath, objKey) — a cross-package Ref from the call
// graph, which may name a package the current one does not import —
// into ptr.
func (p *Pass) ImportFactByKey(pkgPath, objKey string, ptr Fact) bool {
	return p.facts.get(pkgPath, objKey, ptr)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.put(p.Pkg.Path(), "", fact)
}

// ImportPackageFact copies the package-level fact of ptr's type for
// pkg into ptr.
func (p *Pass) ImportPackageFact(pkg *types.Package, ptr Fact) bool {
	if pkg == nil {
		return false
	}
	return p.facts.get(pkg.Path(), "", ptr)
}

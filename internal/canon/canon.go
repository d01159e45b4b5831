// Package canon produces canonical, deterministic string renderings and
// hashes of Go values. The model checker identifies repeated system
// states by hashing a canonical serialization (the paper serializes with
// cPickle and hashes the string, §6); canon is the Go equivalent, with
// map iteration order neutralized by sorting keys. The string side
// serves application and property keys and the differential oracle; the
// production fingerprint hashes component fields word-wise through Mix
// (mix.go) and never builds a string.
package canon

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Stringer lets a type supply its own canonical form. Types whose natural
// formatting is already canonical (e.g. openflow.Match) implement it.
type Stringer interface {
	CanonicalString() string
}

// String renders v canonically: struct fields in declaration order, map
// entries sorted by rendered key, pointers dereferenced, nils explicit.
// It traverses unexported fields (reflection read-only), so applications
// can hash private controller state without exporting it.
func String(v any) string {
	var b strings.Builder
	writeValue(&b, reflect.ValueOf(v), make(map[uintptr]bool))
	return b.String()
}

// Hash64 returns the FNV-1a 64-bit hash of the canonical rendering.
func Hash64(v any) uint64 {
	return Hash64String(String(v))
}

// HashString hashes an already-canonical string with FNV-1a 128-bit,
// returning a compact hex digest for explored-state sets. It is the
// hex-string form of Hash128; fingerprint-based callers use the raw
// Digest instead.
func HashString(s string) string {
	return Hash128(s).Hex()
}

func writeValue(b *strings.Builder, v reflect.Value, seen map[uintptr]bool) {
	if !v.IsValid() {
		b.WriteString("<nil>")
		return
	}
	if v.CanInterface() {
		if cs, ok := v.Interface().(Stringer); ok {
			b.WriteString(cs.CanonicalString())
			return
		}
	}
	switch v.Kind() {
	case reflect.Bool:
		b.WriteString(strconv.FormatBool(v.Bool()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b.WriteString(strconv.FormatInt(v.Int(), 10))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b.WriteString(strconv.FormatUint(v.Uint(), 10))
	case reflect.Float32, reflect.Float64:
		b.WriteString(strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		b.WriteString(strconv.Quote(v.String()))
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		ptr := v.Pointer()
		if seen[ptr] {
			b.WriteString("<cycle>")
			return
		}
		seen[ptr] = true
		writeValue(b, v.Elem(), seen)
		delete(seen, ptr)
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("<nil>")
			return
		}
		writeValue(b, v.Elem(), seen)
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			b.WriteString("[]")
			return
		}
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			writeValue(b, v.Index(i), seen)
		}
		b.WriteByte(']')
	case reflect.Map:
		if v.IsNil() {
			b.WriteString("{}")
			return
		}
		keys := v.MapKeys()
		type kv struct {
			rendered string
			key      reflect.Value
		}
		items := make([]kv, len(keys))
		for i, k := range keys {
			var kb strings.Builder
			writeValue(&kb, k, seen)
			items[i] = kv{rendered: kb.String(), key: k}
		}
		sort.Slice(items, func(i, j int) bool { return items[i].rendered < items[j].rendered })
		b.WriteByte('{')
		for i, it := range items {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(it.rendered)
			b.WriteByte(':')
			writeValue(b, v.MapIndex(it.key), seen)
		}
		b.WriteByte('}')
	case reflect.Struct:
		b.WriteByte('(')
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(t.Field(i).Name)
			b.WriteByte('=')
			writeValue(b, v.Field(i), seen)
		}
		b.WriteByte(')')
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		// Function/channel identity is not meaningful state; render
		// only nil-ness so accidental inclusion stays deterministic.
		if v.IsNil() {
			b.WriteString("<nil>")
		} else {
			b.WriteString("<" + v.Kind().String() + ">")
		}
	default:
		fmt.Fprintf(b, "<?%s>", v.Kind())
	}
}

// Package canon produces deterministic canonical encodings of Go values and
// the keys derived from them. It exists because fmt's %#v is not a
// serialization: it renders pointer fields as addresses (different on every
// run and every process) and map fields in random order, so any key built
// from it silently stops deduplicating the moment a keyed type grows a
// pointer or map — and it can never coordinate work across processes.
//
// The encoding walks a value by reflection and writes a complete,
// deterministic rendering: concrete type names, struct fields in declaration
// order, pointers dereferenced (never printed as addresses), map entries
// sorted by their encoded key, floats in Go's shortest round-trip form,
// strings quoted. Two values of the same printable shape encode equally if
// and only if they are structurally equal.
//
// Sum, the encoding's SHA-256, is the one key of a memoized or coalesced
// solve: internal/sweep's result cache and batch journals, and the solve
// daemon's request coalescing, all identify a point by it, and trust digest
// equality for encoding equality. String is the readable encoding itself,
// which the key goldens pin byte for byte.
//
// Functions, channels and unsafe pointers have no meaningful value identity;
// they encode as their type name only, so keys over values containing them
// may collide. No keyed type in this repository contains any.
package canon

import (
	"bytes"
	"crypto/sha256"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// String returns the canonical encoding of vs, "|"-separated. It is
// deterministic across runs and processes and injective for the plain value
// types used as cache keys in this repository (structs of scalars, strings,
// slices, maps and pointers thereto, without function or channel fields).
func String(vs ...any) string {
	e := encode(vs)
	defer e.release()
	return string(e.b)
}

// Sum returns the SHA-256 digest of String(vs...): the fixed-size key
// every memoized or coalesced solve in this repository is identified by.
// It digests the encoding's bytes without making a string of them.
func Sum(vs ...any) [32]byte {
	e := encode(vs)
	defer e.release()
	return sha256.Sum256(e.b)
}

// maxPooledBytes caps the buffer a released encoder keeps; the keys of this
// repository encode to a few KB.
const maxPooledBytes = 64 << 10

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// encode returns a pooled encoder holding the "|"-separated encoding of vs;
// release it when done with its bytes.
func encode(vs []any) *encoder {
	e := encoders.Get().(*encoder)
	e.b = e.b[:0]
	for i, v := range vs {
		if i > 0 {
			e.b = append(e.b, '|')
		}
		e.enc(reflect.ValueOf(v))
	}
	return e
}

// release returns e to the pool unless its buffer outgrew maxPooledBytes.
func (e *encoder) release() {
	if cap(e.b) <= maxPooledBytes {
		encoders.Put(e)
	}
}

// encoder appends encodings to b. active guards against pointer cycles: a
// pointer already being encoded on this path writes a marker instead of
// recursing. It is made at the first pointer, so a key without pointers
// costs no map, and it is empty again after every value.
type encoder struct {
	b      []byte
	active map[uintptr]bool
}

// enc appends one value.
func (e *encoder) enc(v reflect.Value) {
	if !v.IsValid() {
		e.b = append(e.b, "nil"...)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		e.b = strconv.AppendBool(e.b, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.b = strconv.AppendInt(e.b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.b = strconv.AppendUint(e.b, v.Uint(), 10)
	case reflect.Float32:
		e.b = strconv.AppendFloat(e.b, v.Float(), 'g', -1, 32)
	case reflect.Float64:
		e.b = strconv.AppendFloat(e.b, v.Float(), 'g', -1, 64)
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		e.b = append(e.b, '(')
		e.b = strconv.AppendFloat(e.b, real(c), 'g', -1, 64)
		e.b = append(e.b, ',')
		e.b = strconv.AppendFloat(e.b, imag(c), 'g', -1, 64)
		e.b = append(e.b, ')')
	case reflect.String:
		e.b = strconv.AppendQuote(e.b, v.String())
	case reflect.Pointer:
		if v.IsNil() {
			e.b = append(e.b, "nil"...)
			return
		}
		addr := v.Pointer()
		if e.active[addr] {
			e.b = append(e.b, "&cycle"...)
			return
		}
		if e.active == nil {
			e.active = make(map[uintptr]bool)
		}
		e.active[addr] = true
		e.b = append(e.b, '&')
		e.enc(v.Elem())
		delete(e.active, addr)
	case reflect.Interface:
		if v.IsNil() {
			e.b = append(e.b, "nil"...)
			return
		}
		e.enc(v.Elem())
	case reflect.Struct:
		t := v.Type()
		e.b = append(e.b, t.String()...)
		e.b = append(e.b, '{')
		for i := 0; i < t.NumField(); i++ {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, t.Field(i).Name...)
			e.b = append(e.b, ':')
			e.enc(v.Field(i))
		}
		e.b = append(e.b, '}')
	case reflect.Slice:
		if v.IsNil() {
			e.b = append(e.b, v.Type().String()...)
			e.b = append(e.b, "(nil)"...)
			return
		}
		e.encSeq(v)
	case reflect.Array:
		e.encSeq(v)
	case reflect.Map:
		e.b = append(e.b, v.Type().String()...)
		if v.IsNil() {
			e.b = append(e.b, "(nil)"...)
			return
		}
		e.encMap(v)
	default:
		// Func, Chan, UnsafePointer: no portable value identity. Encode the
		// type alone; see the package comment for the collision caveat.
		e.b = append(e.b, v.Type().String()...)
	}
}

// encSeq appends a slice or array body.
func (e *encoder) encSeq(v reflect.Value) {
	e.b = append(e.b, v.Type().String()...)
	e.b = append(e.b, '[')
	for i := 0; i < v.Len(); i++ {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.enc(v.Index(i))
	}
	e.b = append(e.b, ']')
}

// encMap appends a non-nil map's entries, sorted by their encoding: map
// iteration order is random, the encoding must not be. Each "key:value"
// entry is encoded in place, then the entries are rewritten in order.
func (e *encoder) encMap(v reflect.Value) {
	e.b = append(e.b, '{')
	start := len(e.b)
	spans := make([][2]int, 0, v.Len())
	iter := v.MapRange()
	for iter.Next() {
		from := len(e.b)
		e.enc(iter.Key())
		e.b = append(e.b, ':')
		e.enc(iter.Value())
		spans = append(spans, [2]int{from - start, len(e.b) - start})
	}
	entries := append([]byte(nil), e.b[start:]...)
	slices.SortFunc(spans, func(x, y [2]int) int {
		return bytes.Compare(entries[x[0]:x[1]], entries[y[0]:y[1]])
	})
	e.b = e.b[:start]
	for i, sp := range spans {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = append(e.b, entries[sp[0]:sp[1]]...)
	}
	e.b = append(e.b, '}')
}

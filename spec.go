package ccsvm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"strconv"

	"ccsvm/internal/resultcache"
	"ccsvm/internal/sim"
)

// Canonical spec identity (see ARCHITECTURE.md, "Serving & caching").
//
// The determinism contract makes a Result a pure function of its RunSpec, so
// a canonical serialization of the spec is a content address for the result.
// CanonicalBytes renders the spec as a versioned, line-oriented text form
// with a stable field order; Hash folds it through SHA-256 into the cache
// key used by internal/resultcache and the sweep service.
//
// Two normalizations make the address about content, not provenance:
//
//   - Only fields that can influence the result are encoded. Tag, Preset and
//     Overrides are labels/provenance — a preset-built system and a manually
//     configured one with the same resolved configuration share one address.
//     Only the machine configuration the Kind actually runs on is encoded,
//     so garbage in the inactive config field cannot split the key space.
//   - Params the workload declares it does not read (UsesDensity,
//     UsesIncludeInit — and IncludeInit only ever affects opencl runs) are
//     zeroed before encoding, so matmul at density 0.01 and 0.5 share one
//     entry.
//
// The encoding walks the configuration structs in field-declaration order,
// which is exactly what makes it sensitive to schema evolution: adding,
// removing, renaming or reordering a config field changes every hash. That is
// deliberate — stale cache entries must not be served for a changed schema —
// but it must never happen silently, which is what the golden fixture in
// testdata/spec_hashes.json enforces: if hashes drift, the test fails until
// SpecFormatVersion is bumped (invalidating all previous addresses at once)
// and the fixture is regenerated.

// SpecFormatVersion is the version of the canonical RunSpec encoding. It is
// the first line of CanonicalBytes, so bumping it changes every hash and
// cleanly invalidates every previously persisted cache entry. Bump it
// whenever the encoding or the configuration schema changes shape.
//
// v2: the CCSVM configuration grew Coherence.Protocol — v1 addresses did not
// encode the coherence protocol, so they must all be retired or a MESI run
// could be served a cached MOESI result.
const SpecFormatVersion = 2

// CacheKey is the content address of a RunSpec: the SHA-256 of its canonical
// encoding. It is the key type of the result cache.
type CacheKey = resultcache.Key

// Typed failures of spec resolution (BuildSpec and the sweep service),
// matched with errors.Is.
var (
	// ErrUnknownWorkload reports a workload name absent from the registry.
	ErrUnknownWorkload = errors.New("unknown workload")
	// ErrUnknownPreset reports a preset name absent from the registry.
	ErrUnknownPreset = errors.New("unknown preset")
	// ErrUnknownSystem reports a system kind that names no machine model.
	ErrUnknownSystem = errors.New("unknown system kind")
)

// BuildSpec resolves (workload, system kind, preset, overrides, params) into
// a runnable RunSpec, recording the preset and overrides on the spec as
// provenance. An empty preset means the kind's Table 2 default
// configuration; an empty kind with a preset means the preset's default
// system. Failures are typed: ErrUnknownWorkload, ErrUnknownPreset,
// ErrUnknownSystem, ErrUnsupportedPair, ErrOutOfRange for params the
// workload cannot run with (see Workload.CheckParams), or an OverrideError.
func BuildSpec(workload string, kind SystemKind, preset string, overrides []string, p Params) (RunSpec, error) {
	w, ok := Lookup(workload)
	if !ok {
		return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownWorkload, workload)
	}
	var sys System
	if preset != "" {
		pr, ok := LookupPreset(preset)
		if !ok {
			return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownPreset, preset)
		}
		if kind == "" {
			kind = pr.DefaultKind()
		}
		var err error
		if sys, err = pr.System(kind); err != nil {
			return RunSpec{}, err
		}
	} else {
		if kind == "" {
			return RunSpec{}, fmt.Errorf("%w: empty (name a system or a preset)", ErrUnknownSystem)
		}
		var err error
		if sys, err = NewSystem(kind); err != nil {
			return RunSpec{}, fmt.Errorf("%w %q", ErrUnknownSystem, kind)
		}
	}
	if !w.Supports(kind) {
		return RunSpec{}, fmt.Errorf("%s on %s: %w (supported: %v)",
			workload, kind, ErrUnsupportedPair, w.SystemKinds())
	}
	if err := w.CheckParams(p); err != nil {
		return RunSpec{}, err
	}
	if err := ApplyOverrides(&sys, overrides); err != nil {
		return RunSpec{}, err
	}
	return RunSpec{
		Workload:  workload,
		System:    sys,
		Params:    p,
		Preset:    preset,
		Overrides: overrides,
	}, nil
}

// CanonicalBytes returns the versioned canonical encoding of the spec: a
// line-oriented "path=value" rendering with stable field order and
// normalized defaults (see the package comment above). Specs with equal
// CanonicalBytes produce bit-identical Results under the determinism
// contract.
func (s RunSpec) CanonicalBytes() []byte {
	var b []byte
	b = append(b, "ccsvm-spec-v"...)
	b = strconv.AppendInt(b, SpecFormatVersion, 10)
	b = append(b, '\n')
	b = appendField(b, "workload", reflect.ValueOf(s.Workload))
	b = appendField(b, "system", reflect.ValueOf(string(s.System.Kind)))

	p := s.normalizedParams()
	b = appendField(b, "param.n", reflect.ValueOf(p.N))
	b = appendField(b, "param.density", reflect.ValueOf(p.Density))
	b = appendField(b, "param.seed", reflect.ValueOf(p.Seed))
	b = appendField(b, "param.include_init", reflect.ValueOf(p.IncludeInit))

	// Only the machine configuration this Kind runs on feeds the address.
	if s.System.Kind == SystemCCSVM {
		b = appendConfig(b, "ccsvm", reflect.ValueOf(s.System.CCSVM))
	} else {
		b = appendConfig(b, "apu", reflect.ValueOf(s.System.APU))
	}
	return b
}

// Hash returns the spec's content address: the SHA-256 of CanonicalBytes.
func (s RunSpec) Hash() CacheKey {
	return CacheKey(sha256.Sum256(s.CanonicalBytes()))
}

// Normalized returns the spec with its params canonicalized the way
// CanonicalBytes sees them — fields the workload declares it does not read
// are zeroed. Every spec with the same Hash has the same Normalized params,
// which is what lets the sweep service serve identical response bytes to
// every caller of one content address.
func (s RunSpec) Normalized() RunSpec {
	s.Params = s.normalizedParams()
	return s
}

// normalizedParams zeroes the Params fields that cannot influence this
// spec's Result: Density unless the workload declares UsesDensity, and
// IncludeInit unless the workload declares UsesIncludeInit and the system is
// the OpenCL machine (the only one with a measurable init phase). Unknown
// workloads are left verbatim — the spec still hashes, it just forgoes the
// normalization.
func (s RunSpec) normalizedParams() Params {
	p := s.Params
	w, ok := Lookup(s.Workload)
	if !ok {
		return p
	}
	if !w.UsesDensity {
		p.Density = 0
	}
	if !w.UsesIncludeInit || s.System.Kind != SystemOpenCL {
		p.IncludeInit = false
	}
	return p
}

// specDurationType is sim.Duration's reflect.Type; durations encode as their
// raw picosecond count.
var specDurationType = reflect.TypeOf(sim.Duration(0))

// appendConfig walks a configuration struct in field-declaration order,
// appending one "prefix.Field=value" line per exported scalar leaf. The
// declaration order is the schema: any change to it changes every hash,
// which the golden-fixture test turns into a visible SpecFormatVersion bump.
func appendConfig(b []byte, prefix string, v reflect.Value) []byte {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + "." + f.Name
		fv := v.Field(i)
		if fv.Type() != specDurationType && fv.Kind() == reflect.Struct {
			b = appendConfig(b, path, fv)
			continue
		}
		b = appendField(b, path, fv)
	}
	return b
}

// appendField appends one canonical "path=value" line. Floats use the
// shortest round-tripping form, so the encoding is exact; unsupported kinds
// panic — the configuration schema is scalars and structs of scalars, and a
// new kind must be given an explicit canonical form here before it can be
// hashed.
func appendField(b []byte, path string, v reflect.Value) []byte {
	b = append(b, path...)
	b = append(b, '=')
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = strconv.AppendInt(b, v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		b = strconv.AppendUint(b, v.Uint(), 10)
	case reflect.Float32, reflect.Float64:
		b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
	case reflect.Bool:
		b = strconv.AppendBool(b, v.Bool())
	case reflect.String:
		b = strconv.AppendQuote(b, v.String())
	default:
		panic(fmt.Sprintf("ccsvm: no canonical encoding for %s (kind %s) at %s", v.Type(), v.Kind(), path))
	}
	return append(b, '\n')
}

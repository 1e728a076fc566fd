package workloads

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"ccsvm/internal/apu"
	"ccsvm/internal/core"
	"ccsvm/internal/sim"
)

// The override layer makes every field of core.Config and apu.Config
// sweepable from the command line and from experiment code without
// per-field plumbing: a dotted path such as "ccsvm.MTTOPIssueWidth" or
// "apu.DRAM.Latency" is resolved against the System's configuration struct
// by a small reflection walker, the string value is parsed according to the
// field's Go type, and the resulting configuration is re-validated. All
// failure modes return typed errors so callers (and tests) can distinguish
// a typo in the path from a malformed value from a structurally invalid
// configuration.

// Sentinel errors of the override layer, matched with errors.Is.
var (
	// ErrUnknownPath reports a dotted path that does not name a
	// configuration field.
	ErrUnknownPath = errors.New("unknown configuration path")
	// ErrBadValue reports a value that does not parse as the field's type.
	ErrBadValue = errors.New("value does not parse as the field's type")
	// ErrOutOfRange reports a value that parsed but leaves the configuration
	// structurally invalid (for example a zero core count), or a workload
	// parameter the workload cannot run with (see Workload.CheckParams).
	ErrOutOfRange = errors.New("value leaves the configuration out of range")
	// ErrMachineMismatch reports an override whose root ("ccsvm." or "apu.")
	// names the machine the target System does not run on.
	ErrMachineMismatch = errors.New("override targets the wrong machine")
)

// OverrideError carries the failing path and value together with one of the
// sentinel errors above; errors.Is and errors.As both work on it.
type OverrideError struct {
	// Path is the dotted path as given by the caller.
	Path string
	// Value is the value the caller tried to assign ("" for path errors).
	Value string
	// Err is the sentinel classifying the failure.
	Err error
	// Detail explains the specific problem (the unknown segment, the parse
	// error, the validation message).
	Detail string
}

// Error implements error.
func (e *OverrideError) Error() string {
	msg := fmt.Sprintf("override %s", e.Path)
	if e.Value != "" {
		msg += "=" + e.Value
	}
	msg += ": " + e.Err.Error()
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

// Unwrap exposes the sentinel for errors.Is.
func (e *OverrideError) Unwrap() error { return e.Err }

// Set assigns one configuration field of the system, named by a dotted path
// rooted at the machine ("ccsvm.NumMTTOPs", "apu.OpenCL.KernelLaunch").
// Field names are matched case-insensitively. Durations use Go syntax
// ("72ns", "1.5us"); numbers and booleans use their usual literals. The
// modified configuration is re-validated before Set returns; an invalid
// result is rolled back and reported as ErrOutOfRange.
func Set(sys *System, path, value string) error {
	root, rest, ok := strings.Cut(path, ".")
	if !ok {
		return &OverrideError{Path: path, Value: value, Err: ErrUnknownPath,
			Detail: `a path is "ccsvm.<Field>..." or "apu.<Field>..."`}
	}
	var target reflect.Value
	switch root {
	case "ccsvm":
		if sys.Kind != SystemCCSVM {
			return &OverrideError{Path: path, Value: value, Err: ErrMachineMismatch,
				Detail: fmt.Sprintf("system %q runs on the apu machine", sys.Kind)}
		}
		target = reflect.ValueOf(&sys.CCSVM).Elem()
	case "apu":
		if sys.Kind == SystemCCSVM {
			return &OverrideError{Path: path, Value: value, Err: ErrMachineMismatch,
				Detail: `system "ccsvm" runs on the ccsvm machine`}
		}
		target = reflect.ValueOf(&sys.APU).Elem()
	default:
		return &OverrideError{Path: path, Value: value, Err: ErrUnknownPath,
			Detail: fmt.Sprintf("unknown machine %q, want ccsvm or apu", root)}
	}

	field, err := walkPath(target, path, rest, value)
	if err != nil {
		return err
	}
	// Remember the old value so a failed validation leaves the system as it
	// was (overrides must be all-or-nothing for sweep code).
	old := reflect.New(field.Type()).Elem()
	old.Set(field)
	if err := parseInto(field, path, value); err != nil {
		return err
	}
	if verr := validateSystem(sys); verr != nil {
		field.Set(old)
		return &OverrideError{Path: path, Value: value, Err: ErrOutOfRange, Detail: verr.Error()}
	}
	return nil
}

// Apply applies a list of "path=value" assignments in order, stopping at the
// first failure (the system keeps the assignments made before it).
func Apply(sys *System, assignments []string) error {
	for _, a := range assignments {
		path, value, ok := strings.Cut(a, "=")
		if !ok {
			return &OverrideError{Path: a, Err: ErrBadValue, Detail: `an assignment is "path=value"`}
		}
		if err := Set(sys, path, value); err != nil {
			return err
		}
	}
	return nil
}

// walkPath descends target through the dotted segments of rest and returns
// the addressable leaf field.
func walkPath(target reflect.Value, fullPath, rest, value string) (reflect.Value, error) {
	for _, seg := range strings.Split(rest, ".") {
		if target.Kind() != reflect.Struct {
			return reflect.Value{}, &OverrideError{Path: fullPath, Value: value, Err: ErrUnknownPath,
				Detail: fmt.Sprintf("%q is not a configuration struct", seg)}
		}
		field, ok := fieldByNameFold(target, seg)
		if !ok {
			return reflect.Value{}, &OverrideError{Path: fullPath, Value: value, Err: ErrUnknownPath,
				Detail: fmt.Sprintf("no field %q; have %s", seg, strings.Join(fieldNames(target.Type()), ", "))}
		}
		target = field
	}
	return target, nil
}

// fieldByNameFold finds an exported struct field by exact name first, then
// case-insensitively.
func fieldByNameFold(v reflect.Value, name string) (reflect.Value, bool) {
	t := v.Type()
	if f, ok := t.FieldByName(name); ok && f.IsExported() {
		return v.FieldByIndex(f.Index), true
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.IsExported() && strings.EqualFold(f.Name, name) {
			return v.Field(i), true
		}
	}
	return reflect.Value{}, false
}

// fieldNames lists the exported field names of a struct type.
func fieldNames(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			names = append(names, f.Name)
		}
	}
	return names
}

// durationType is sim.Duration's reflect.Type; duration fields get Go
// duration syntax instead of a raw picosecond count.
var durationType = reflect.TypeOf(sim.Duration(0))

// parseInto parses value according to the field's type and assigns it.
func parseInto(field reflect.Value, path, value string) error {
	fail := func(detail string) error {
		return &OverrideError{Path: path, Value: value, Err: ErrBadValue, Detail: detail}
	}
	if field.Type() == durationType {
		d, err := parseSimDuration(value)
		if err != nil {
			return fail(`durations use Go syntax with a unit, e.g. "72ns", "0.5ns", or "1.5us"`)
		}
		field.SetInt(int64(d))
		return nil
	}
	switch field.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fail("want an integer")
		}
		field.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fail("want a non-negative integer")
		}
		field.SetUint(n)
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fail("want a number")
		}
		field.SetFloat(f)
	case reflect.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fail("want true or false")
		}
		field.SetBool(b)
	case reflect.String:
		field.SetString(value)
	default:
		return fail(fmt.Sprintf("field type %s is not settable from a string; name one of its fields", field.Type()))
	}
	return nil
}

// durationUnits maps unit suffixes to their length in picoseconds, longest
// suffix first so "ns" is not mistaken for "s".
var durationUnits = []struct {
	suffix string
	ps     float64
}{
	{"ps", 1},
	{"ns", 1e3},
	{"us", 1e6},
	{"µs", 1e6},
	{"ms", 1e9},
	{"s", 1e12},
}

// parseSimDuration parses a duration at the simulator's picosecond
// resolution. time.ParseDuration would silently truncate sub-nanosecond
// values ("0.5ns" → 0) — and the Table 2 machines have sub-nanosecond cache
// hit latencies, so those are natural sweep points.
func parseSimDuration(value string) (sim.Duration, error) {
	for _, u := range durationUnits {
		num, ok := strings.CutSuffix(value, u.suffix)
		if !ok || num == "" {
			continue
		}
		f, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q", value)
		}
		ps := f * u.ps
		if ps < 0 {
			return sim.Duration(ps - 0.5), nil
		}
		return sim.Duration(ps + 0.5), nil
	}
	return 0, fmt.Errorf("duration %q needs a unit (ps, ns, us, ms, s)", value)
}

// validateSystem runs the machine's structural validation.
func validateSystem(sys *System) error {
	if sys.Kind == SystemCCSVM {
		return sys.CCSVM.Validate()
	}
	return sys.APU.Validate()
}

// OverridePaths enumerates every settable dotted path of the named machine
// ("ccsvm" or "apu"), each suffixed with its type — the reference the CLI's
// -list-paths flag prints. Unknown machines return nil.
func OverridePaths(machine MachineKind) []string {
	var t reflect.Type
	switch machine {
	case MachineCCSVM:
		t = reflect.TypeOf(core.Config{})
	case MachineAPU:
		t = reflect.TypeOf(apu.Config{})
	default:
		return nil
	}
	var paths []string
	collectPaths(t, string(machine), &paths)
	sort.Strings(paths)
	return paths
}

// collectPaths appends "prefix.Field <type>" for every settable leaf field.
func collectPaths(t reflect.Type, prefix string, out *[]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := prefix + "." + f.Name
		switch {
		case f.Type == durationType:
			*out = append(*out, path+" duration")
		case f.Type.Kind() == reflect.Struct:
			collectPaths(f.Type, path, out)
		case isScalarKind(f.Type.Kind()):
			*out = append(*out, path+" "+f.Type.Kind().String())
		}
	}
}

// isScalarKind reports whether the override layer can parse the kind.
func isScalarKind(k reflect.Kind) bool {
	switch k {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Bool, reflect.String:
		return true
	}
	return false
}

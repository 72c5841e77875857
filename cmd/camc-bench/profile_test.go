package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestProfileFlags runs a small experiment with -cpuprofile and
// -memprofile: both files must be written and decode as pprof profiles
// of the right kind, and the experiment's output must stay byte-identical
// to its golden.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "fig5", "-quick", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig5_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("profiling changed the fig5 output:\n%s", stdout.String())
	}
	for _, tc := range []struct {
		path  string
		types []string
	}{
		{cpu, []string{"samples/count", "cpu/nanoseconds"}},
		{mem, []string{"alloc_objects/count", "alloc_space/bytes", "inuse_objects/count", "inuse_space/bytes"}},
	} {
		types, err := profileSampleTypes(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(tc.path), err)
		}
		if !slices.Equal(types, tc.types) {
			t.Errorf("%s: sample types %v, want %v", filepath.Base(tc.path), types, tc.types)
		}
	}
}

func TestProfileFlagBadPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "p.pprof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", "tab5", flag, missing}, &stdout, &stderr); code != 1 {
			t.Errorf("%s into a missing directory: exit %d, want 1 (stderr %q)", flag, code, stderr.String())
		}
	}
}

// profileSampleTypes decodes a gzipped pprof profile (the
// perftools.profiles.Profile protobuf) far enough to name its sample
// types as "type/unit": field 1 holds the ValueType messages and field 6
// the string table they index. Every field must decode and the buffer
// must be consumed exactly.
func profileSampleTypes(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	var valueTypes [][2]uint64
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1:
			var vt [2]uint64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			}); err != nil {
				return err
			}
			valueTypes = append(valueTypes, vt)
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(strs) == 0 || strs[0] != "" {
		return nil, fmt.Errorf("string table must start with the empty string")
	}
	var out []string
	for _, vt := range valueTypes {
		if vt[0] >= uint64(len(strs)) || vt[1] >= uint64(len(strs)) {
			return nil, fmt.Errorf("sample type indexes %v outside a %d-entry string table", vt, len(strs))
		}
		out = append(out, strs[vt[0]]+"/"+strs[vt[1]])
	}
	return out, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field := int(key >> 3)
		var v uint64
		var body []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("field %d: bad varint", field)
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return fmt.Errorf("field %d: truncated fixed-width value", field)
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return fmt.Errorf("field %d: bad length", field)
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("field %d: unknown wire type %d", field, key&7)
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

const countersShapeGolden = "testdata/counters_shape.golden"

// fillDistinct sets every number v holds, nested and embedded structs
// included, to the next of 1, 2, 3, … in declaration order, so no two
// fields of an encoding share a value and a field that moves, vanishes or
// swaps names with another changes the bytes.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	}
}

// TestCountersJSONShape pins the JSON of /stats' Counters and of the load
// client's LoadReport — names, order and nesting — byte for byte to
// testdata/counters_shape.golden, each with every field distinct, and
// checks that each line decodes back to the value it encodes: what the
// load client, the CI drills and bench/ read. -update rewrites the file
// when a change of either shape is intended.
func TestCountersJSONShape(t *testing.T) {
	var got bytes.Buffer
	var next int64
	for _, v := range []any{&Counters{}, &LoadReport{}} {
		fillDistinct(reflect.ValueOf(v).Elem(), &next)
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		back := reflect.New(reflect.TypeOf(v).Elem())
		if err := json.Unmarshal(b, back.Interface()); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Interface(), v) {
			t.Fatalf("%T does not decode back from %s", v, b)
		}
		got.Write(b)
		got.WriteByte('\n')
	}
	if *updateGoldens {
		if err := os.WriteFile(countersShapeGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countersShapeGolden)
	if err != nil {
		t.Fatalf("%v (cut it with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("counter JSON differs from %s (rewrite it with -update if intended)\nwant:\n%sgot:\n%s", countersShapeGolden, want, got.Bytes())
	}
}

package metrics

import (
	"io"
	"reflect"
	"strings"
	"sync/atomic"
)

// WriteFields exports a counter block by reflection, so adding a field to
// the block is all it takes to export it. v points to a struct. Each
// exported atomic.Uint64 field becomes one family prefix_<snake>: a
// counter named prefix_<snake>_total when typ is "counter", a gauge when
// typ is "gauge". Each exported Histogram field becomes a dimensionless
// histogram prefix_<snake> (WritePromValues). Other fields are skipped.
// The HELP text names the Go field, whose comment says what it counts.
func WriteFields(w io.Writer, prefix, typ string, v any) {
	rv := reflect.ValueOf(v).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			continue
		}
		name := prefix + "_" + snake(f.Name)
		help := rt.String() + "." + f.Name
		switch p := rv.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			if typ == "counter" {
				CounterFam(w, name+"_total", help, p.Load())
			} else {
				GaugeFam(w, name, help, float64(p.Load()))
			}
		case *Histogram:
			p.WritePromValues(w, name)
		}
	}
}

// Info writes an info-style family: one gauge sample of value 1 whose
// labels (alternating key, value) carry string-valued facts such as
// configuration or build identity.
func Info(w io.Writer, name, help string, labels ...string) {
	GaugeFam(w, name, help, 1, labels...)
}

// snake converts a Go field name to snake_case. A run of capitals is one
// word (WriteENOSPC → write_enospc, HWCommits → hw_commits).
func snake(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			prevLower := i > 0 && s[i-1] >= 'a' && s[i-1] <= 'z'
			nextLower := i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z'
			if i > 0 && (prevLower || nextLower) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

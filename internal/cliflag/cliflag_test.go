package cliflag

import (
	"flag"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRegistrars registers each shared flag on a fresh FlagSet and checks
// its name, its default, and the value it parses.
func TestRegistrars(t *testing.T) {
	cases := []struct {
		name     string
		register func(fs *flag.FlagSet) func() string
		def, arg string
	}{
		{"seed", func(fs *flag.FlagSet) func() string { return show(Seed(fs, 11)) }, "11", "42"},
		{"alg", func(fs *flag.FlagSet) func() string { return show(Alg(fs)) }, string(core.Predictive), string(core.NonPredictive)},
		{"policies", func(fs *flag.FlagSet) func() string { return show(Policies(fs)) }, "", "predictive,greedy"},
		{"parallel", func(fs *flag.FlagSet) func() string { return show(Parallel(fs)) }, "0", "3"},
		{"cache-dir", func(fs *flag.FlagSet) func() string { return show(CacheDir(fs)) }, "", "/var/cache/rm"},
		{"seeds", func(fs *flag.FlagSet) func() string { return show(Seeds(fs)) }, "1", "20"},
		{"addr", func(fs *flag.FlagSet) func() string { return show(Addr(fs, ":8080")) }, ":8080", "127.0.0.1:0"},
		{"log-format", func(fs *flag.FlagSet) func() string { return show(LogFormat(fs)) }, "text", "json"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			value := c.register(fs)
			f := fs.Lookup(c.name)
			if f == nil {
				t.Fatalf("flag -%s not registered", c.name)
			}
			if f.DefValue != c.def || value() != c.def {
				t.Errorf("default = %q (value %q), want %q", f.DefValue, value(), c.def)
			}
			if f.Usage == "" {
				t.Error("empty help text")
			}
			if err := fs.Parse([]string{"-" + c.name, c.arg}); err != nil {
				t.Fatal(err)
			}
			if value() != c.arg {
				t.Errorf("parsed -%s %s = %q", c.name, c.arg, value())
			}
		})
	}
}

// show reads a flag's destination as the string the command line spells.
func show[T any](p *T) func() string {
	return func() string { return fmt.Sprint(*p) }
}

// TestAlgHelpListsRegistry: the -alg and -policies help text names every
// registered policy, so a new policy shows up in every binary's usage.
func TestAlgHelpListsRegistry(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Alg(fs)
	Policies(fs)
	for _, name := range []string{"alg", "policies"} {
		if usage := fs.Lookup(name).Usage; !strings.Contains(usage, core.AlgorithmNames()) {
			t.Errorf("-%s help %q does not list the registry %q", name, usage, core.AlgorithmNames())
		}
	}
}

func TestParsePolicies(t *testing.T) {
	for _, blank := range []string{"", "  "} {
		got, err := ParsePolicies(blank)
		if err != nil || got != nil {
			t.Errorf("ParsePolicies(%q) = %v, %v; want nil, nil", blank, got, err)
		}
	}

	got, err := ParsePolicies(" predictive , ,non-predictive ")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"predictive", "non-predictive"}; !reflect.DeepEqual(got, want) {
		t.Errorf("ParsePolicies trimmed list = %q, want %q", got, want)
	}

	got, err = ParsePolicies("predictive,bogus")
	if err == nil {
		t.Fatalf("ParsePolicies accepted an unknown policy: %q", got)
	}
	if got != nil {
		t.Errorf("ParsePolicies returned %q alongside its error", got)
	}
	for _, want := range []string{`"bogus"`, core.AlgorithmNames()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

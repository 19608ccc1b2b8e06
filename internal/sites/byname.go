package sites

import "fmt"

// named lists the benchmarks ByName builds, in the order Names gives them.
// Bing is always a load-and-browse session (its definition depends on the
// browse actions), the other sites honor o.Browse.
var named = []struct {
	name  string
	build func(Options) Benchmark
}{
	{"amazon-desktop", AmazonDesktop},
	{"amazon-mobile", AmazonMobile},
	{"maps", GoogleMaps},
	{"bing", func(o Options) Benchmark { o.Browse = true; return Bing(o) }},
}

// ByName returns the named benchmark — the lookup the CLI and the slicing
// service share.
func ByName(name string, o Options) (Benchmark, error) {
	build, err := lookup(name)
	if err != nil {
		return Benchmark{}, err
	}
	return build(o), nil
}

// CheckName returns the error ByName returns for name, or nil if ByName
// accepts it, without building the site.
func CheckName(name string) error {
	_, err := lookup(name)
	return err
}

func lookup(name string) (func(Options) Benchmark, error) {
	for _, s := range named {
		if s.name == name {
			return s.build, nil
		}
	}
	return nil, fmt.Errorf("unknown site %q (want one of %v)", name, Names())
}

// Names lists the benchmark names ByName accepts.
func Names() []string {
	names := make([]string, len(named))
	for i, s := range named {
		names[i] = s.name
	}
	return names
}

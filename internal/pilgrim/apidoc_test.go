package pilgrim

import (
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"pilgrim/internal/shard"
)

// docs/API.md is what operators and client authors read, so it must name
// exactly what the server serves: every route registered on the mux, and
// every /metrics family pilgrimd can export.

// apiDoc returns the text of docs/API.md.
func apiDoc(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// docRoute matches an endpoint heading: "## GET /path" or
// "## GET | POST /path".
var docRoute = regexp.MustCompile(`(?m)^## ((?:GET|POST)(?: \| (?:GET|POST))*) (/\S*)$`)

// routeKey is a pattern's method and path with any trailing slash
// dropped: /x and /x/ are one endpoint, documented once.
func routeKey(method, path string) string {
	if len(path) > 1 {
		path = strings.TrimSuffix(path, "/")
	}
	return method + " " + path
}

// TestAPIDocListsEveryRoute checks that the routes the server registers
// and the endpoint headings of docs/API.md are the same set.
func TestAPIDocListsEveryRoute(t *testing.T) {
	served := map[string]bool{}
	for _, r := range NewServer(nil, nil).routes() {
		method, path, _ := strings.Cut(r.pattern, " ")
		served[routeKey(method, path)] = true
	}
	documented := map[string]bool{}
	for _, m := range docRoute.FindAllStringSubmatch(apiDoc(t), -1) {
		for _, method := range strings.Split(m[1], " | ") {
			documented[routeKey(method, m[2])] = true
		}
	}
	for _, k := range sortedKeys(served) {
		if !documented[k] {
			t.Errorf("route %s is served but has no heading in docs/API.md", k)
		}
	}
	for _, k := range sortedKeys(documented) {
		if !served[k] {
			t.Errorf("docs/API.md documents %s, which the server does not serve", k)
		}
	}
}

// docFamily matches a row of the pilgrimd family table in docs/API.md.
var docFamily = regexp.MustCompile("(?m)^\\| `(pilgrim_[a-z_]+)`")

// TestAPIDocListsEveryMetricFamily checks that the families the tagged
// stats structs declare, plus those /metrics writes out itself (scraped
// from a fleet member, which has them all), and the family table of
// docs/API.md are the same set.
func TestAPIDocListsEveryMetricFamily(t *testing.T) {
	exported := map[string]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft)
				continue
			}
			if tag := f.Tag.Get("metric"); tag != "" && tag != "-" {
				name, _, _ := strings.Cut(tag, "{")
				exported[name] = true
			}
		}
	}
	walk(reflect.TypeOf(serverStats{}))

	server := NewServer(nil, nil)
	ring, err := shard.NewRing(&shard.Map{Workers: []shard.Worker{{Name: "self", URL: "http://127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	server.SetShardIdentity("self", shard.NewTable(ring))
	rec := httptest.NewRecorder()
	server.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			exported[name] = true
		}
	}

	doc := apiDoc(t)
	start := strings.Index(doc, "\n## GET /metrics\n")
	if start < 0 {
		t.Fatal("docs/API.md has no GET /metrics section")
	}
	section := doc[start+1:]
	if end := strings.Index(section[1:], "\n## "); end >= 0 {
		section = section[:end+1]
	}
	documented := map[string]bool{}
	for _, m := range docFamily.FindAllStringSubmatch(section, -1) {
		if documented[m[1]] {
			t.Errorf("docs/API.md lists %s twice", m[1])
		}
		documented[m[1]] = true
	}
	for _, k := range sortedKeys(exported) {
		if !documented[k] {
			t.Errorf("/metrics exports %s, which the family table of docs/API.md does not list", k)
		}
	}
	for _, k := range sortedKeys(documented) {
		if !exported[k] {
			t.Errorf("docs/API.md lists family %s, which /metrics does not export", k)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

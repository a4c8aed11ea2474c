package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
)

// families are the generator families the benchmark's workloads draw
// from: cold-compile, hot-resubmit and exec-run.
var families = []struct {
	name string
	cfg  irgen.Config
}{{"Default", irgen.Default()}, {"Small", irgen.Small()}, {"Hostile", irgen.Hostile()}}

func marshalRequest(tb testing.TB, req PlaceRequest) []byte {
	tb.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// allFields sets every PlaceRequest field, with ir as the program.
func allFields(ir string) PlaceRequest {
	return PlaceRequest{IR: ir, Machine: "deep-pipeline", Strategy: "best", Alloc: "machine",
		Args: []int64{5, -3}, Run: true, Engine: "tree", Emit: true, Tier: true, Quantum: 4096}
}

// fallbackBodies are inputs the one-pass path must leave to
// encoding/json: each differs from what json.Marshal writes for a
// PlaceRequest in one way.
var fallbackBodies = []string{
	`{"IR":"x"}`,
	`{"ir":"a","ir":"b"}`,
	`{"ir":"a","extra":{"x":[1,{"y":null}],"z":"w"}}`,
	`{"\u0069r":"a"}`,
	`{"ir":"\u0069"}`,
	`{"ir":"\ud83d\ude00"}`,
	"{\"ir\":\"a\xffb\"}",
	"{\"ir\":\"a\x01b\"}",
	`{"ir":null,"machine":null,"args":null,"run":null,"quantum":null}`,
	`{"quantum":1e2}`,
	`{"quantum":1.0}`,
	`{"quantum":01}`,
	`{"quantum":9223372036854775808}`,
	`{"args":[1e2,1.0,-0,01]}`,
	`{"args":[-9223372036854775809]}`,
	`{"run":1,"emit":"true"}`,
	`{"ir":"a"} x`,
	`{"ir":"a"}{}`,
	`{"ir":"a",}`,
	`{"args":[1,]}`,
	`[]`,
	`"ir"`,
	``,
	`{"ir":"a`,
	`{"ir":"a\`,
}

// oddBodies are inputs json.Marshal does not write that the one-pass
// path still decodes, as encoding/json does.
var oddBodies = []string{
	" \t\n{ \"ir\" : \"a\\n\" ,\r\n\"args\" : [ 1 , 2 ] , \"run\" : true , \"tier\":false } \r\n",
	`{"quantum":-0}`,
	`{"args":[9223372036854775807,-9223372036854775808]}`,
	`{"args":[]}`,
	`{}`,
}

// FuzzDecodeRequest: whatever the input, decodeRequest's value and
// error are json.Unmarshal's, and whenever the one-pass path accepts,
// json.Unmarshal accepts too and decodes the same value.
func FuzzDecodeRequest(f *testing.F) {
	for _, fam := range families {
		f.Add(marshalRequest(f, allFields(irtext.Print(irgen.Generate(1, fam.cfg)))))
	}
	for _, b := range append(fallbackBodies, oddBodies...) {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want PlaceRequest
		gotErr := decodeRequest(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, encoding/json says %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %#v, encoding/json decodes %#v", got, want)
		}
		var fast PlaceRequest
		if decodeCanonical(data, &fast) {
			if wantErr != nil {
				t.Fatalf("one-pass path accepted what encoding/json rejects: %v", wantErr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("one-pass decoded %#v, encoding/json decodes %#v", fast, want)
			}
		}
	})
}

// TestDecodeRequestFastPath: the one-pass path, not the fallback,
// decodes what json.Marshal writes for a PlaceRequest. A silent
// fallback would keep every other test green and lose the speed.
func TestDecodeRequestFastPath(t *testing.T) {
	small := irtext.Print(irgen.Generate(3, irgen.Small()))
	cases := []PlaceRequest{
		{IR: small},
		{Machine: "slow-memory"},
		{Strategy: "entry-exit"},
		{Alloc: "machine"},
		{Args: []int64{-9223372036854775808, 0, 9223372036854775807}},
		{Run: true},
		{Engine: "tree"},
		{Emit: true},
		{Tier: true},
		{Quantum: -12},
		allFields("# \"quoted\" \\ / \b \f \r \t é 世\n" + small),
		// The workloads' options: cold-compile, hot-resubmit, exec-run.
		{IR: irtext.Print(irgen.Generate(3, irgen.Default())), Strategy: "hierarchical-jump", Args: []int64{5}},
		{IR: "# variant 7\n" + small, Strategy: "hierarchical-jump", Args: []int64{5}},
		{IR: irtext.Print(irgen.Generate(3, irgen.Hostile())), Args: []int64{3}, Run: true, Tier: true},
	}
	for i, want := range cases {
		body := marshalRequest(t, want)
		var got PlaceRequest
		if !decodeCanonical(body, &got) {
			t.Errorf("case %d: one-pass path refused %.120s", i, body)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: decoded %#v, want %#v", i, got, want)
		}
	}

	for _, body := range fallbackBodies {
		if decodeCanonical([]byte(body), new(PlaceRequest)) {
			t.Errorf("one-pass path accepted %q", body)
		}
	}
	for _, body := range oddBodies {
		if !decodeCanonical([]byte(body), new(PlaceRequest)) {
			t.Errorf("one-pass path refused %q", body)
		}
	}

	// One canonical Small body decodes with four allocations: the
	// request, which escapes into encoding/json's path, the IR, the
	// strategy and the args.
	body := marshalRequest(t, PlaceRequest{IR: small, Strategy: "hierarchical-jump", Args: []int64{5}})
	allocs := testing.AllocsPerRun(100, func() {
		var req PlaceRequest
		if err := decodeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("decoding a Small body allocates %v times, want 4", allocs)
	}
}

// postRaw sends body to /v1/place over a raw connection with the given
// headers, closes the write side, and returns the response status.
func postRaw(t *testing.T, addr, headers, body string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/place HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n%s\r\n%s", headers, body)
	conn.(*net.TCPConn).CloseWrite()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// chunked encodes body as one chunk and the terminating empty chunk.
func chunked(body string) string {
	return fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body)
}

// TestReadBody: a body is read whether it declares its length or is
// chunked; either form over MaxBodyBytes is answered 413, and a body
// shorter than its declared length 400.
func TestReadBody(t *testing.T) {
	const limit = 64 << 10
	// No timeout handler: it would answer 503 once the client's closed
	// write side cancels the request's context.
	s, ts := newTestServer(t, Config{MaxBodyBytes: limit, RequestTimeout: -1})
	addr := ts.Listener.Addr().String()
	body := string(marshalRequest(t, PlaceRequest{IR: testProgram(8), Args: []int64{5}}))
	big := string(marshalRequest(t, PlaceRequest{IR: strings.Repeat("# padding\n", limit/10)}))
	cases := []struct {
		name, headers, body string
		status              int
	}{
		{"declared length", fmt.Sprintf("Content-Length: %d\r\n", len(body)), body, http.StatusOK},
		{"chunked", "Transfer-Encoding: chunked\r\n", chunked(body), http.StatusOK},
		{"declared over the cap", fmt.Sprintf("Content-Length: %d\r\n", len(big)), big, http.StatusRequestEntityTooLarge},
		{"chunked over the cap", "Transfer-Encoding: chunked\r\n", chunked(big), http.StatusRequestEntityTooLarge},
		{"short of its declared length", fmt.Sprintf("Content-Length: %d\r\n", len(body)+10), body, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := postRaw(t, addr, tc.headers, tc.body); got != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.status)
		}
	}
	if sn := s.snapshot(); sn.Requests.OK != 2 || sn.Requests.TooLarge != 2 || sn.Requests.BadRequest != 1 {
		t.Errorf("requests = %+v, want 2 ok, 2 too large and 1 bad", sn.Requests)
	}

	// Both read paths hand the same bytes on.
	for _, tc := range []struct{ name, headers, body string }{
		{"declared length", fmt.Sprintf("Content-Length: %d\r\n", len(body)), body},
		{"chunked", "Transfer-Encoding: chunked\r\n", chunked(body)},
	} {
		req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
			"POST /v1/place HTTP/1.1\r\nHost: x\r\n" + tc.headers + "\r\n" + tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := readBody(nil, req, limit)
		if err != nil || string(got) != body {
			t.Errorf("%s: read %q, %v; want the body", tc.name, got, err)
		}
	}
}

// BenchmarkDecodeRequest decodes canonical request bodies of each
// generator family with the one-pass path and, for reference, with
// json.Unmarshal.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, fam := range families {
		var bodies [][]byte
		var size int
		for seed := uint64(1); seed <= 50; seed++ {
			ir := irtext.Print(irgen.Generate(seed, fam.cfg))
			bodies = append(bodies, marshalRequest(b, PlaceRequest{IR: ir, Strategy: "hierarchical-jump", Args: []int64{5}}))
			size += len(bodies[len(bodies)-1])
		}
		decoders := []struct {
			name   string
			decode func([]byte, *PlaceRequest) error
		}{
			{"one-pass", decodeRequest},
			{"json.Unmarshal", func(data []byte, req *PlaceRequest) error { return json.Unmarshal(data, req) }},
		}
		for _, dec := range decoders {
			b.Run(fam.name+"/"+dec.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(size / len(bodies)))
				for i := 0; i < b.N; i++ {
					var req PlaceRequest
					if err := dec.decode(bodies[i%len(bodies)], &req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

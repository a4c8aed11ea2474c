package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServePlace feeds arbitrary bodies through the real handler.
// Whatever the body, no panic escapes, the status is one the service
// documents, and resubmitting the same bytes returns the same status
// and bytes, from the program cache after a 200.
func FuzzServePlace(f *testing.F) {
	small := testProgram(2)
	for _, req := range []PlaceRequest{
		{IR: small, Args: []int64{5}, Run: true},
		{IR: small, Args: []int64{5}, Tier: true},
		{IR: small, Args: []int64{5}, Emit: true},
		{IR: small, Args: []int64{5}, Strategy: "best"},
		{IR: small, Args: []int64{5}, Run: true, Engine: "tree"},
		{IR: small, Args: []int64{5}, Alloc: "machine"},
		{IR: small},
		{IR: "func main( {", Args: []int64{5}},
	} {
		f.Add(marshalRequest(f, req))
	}
	for _, b := range append(fallbackBodies, oddBodies...) {
		f.Add([]byte(b))
	}
	h := New(Config{MaxBodyBytes: 64 << 10, MaxVMSteps: 1 << 16, RequestTimeout: -1}).Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		first := serve(body)
		switch first.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusInternalServerError:
		default:
			t.Fatalf("status %d: %s", first.Code, first.Body)
		}
		again := serve(body)
		if again.Code != first.Code || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("resubmission: status %d %s, first %d %s", again.Code, again.Body, first.Code, first.Body)
		}
		if c := again.Header().Get("X-Cache"); first.Code == http.StatusOK && c != cacheProgram {
			t.Fatalf("resubmission after a 200: X-Cache %q, want %q", c, cacheProgram)
		}
	})
}

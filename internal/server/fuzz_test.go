package server

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeStrict feeds arbitrary bodies to the daemon's one request
// decoder, as POST /v1/profiles and POST /v1/streams do. It must never
// panic, and a body it accepts must mean one value: re-marshalled and
// decoded again, it decodes to the same request.
func FuzzDecodeStrict(f *testing.F) {
	f.Add([]byte(`{"query":"SELECT AVG(count(car)) FROM small","seed":7,"step":0.02,"max_fraction":0.2,"early_stop":0.01,"async":true}`))
	f.Add([]byte(`{"query":"SELECT AVG(count(car)) FROM small","ladder":"default"}`))
	f.Add([]byte(`{"query":"SELECT SUM(count(car)) FROM small SAMPLE 0.2","window":300,"stride":150,"loops":2,"seed":3,"drift_threshold":0.3,"disable_drift":true}`))
	f.Add([]byte(`{"query":"q","wire_pixels":true}`))
	f.Add([]byte(`{"query":"q"} {}`))
	f.Add([]byte(`{"seed":-1}`))
	f.Add([]byte(`{"Query":"q","QUERY":"r"}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrips[GenRequest](t, body)
		roundTrips[StreamRequest](t, body)
	})
}

// roundTrips decodes body as a T and, when that is accepted, checks that
// the value survives a marshal-and-decode through the same decoder.
func roundTrips[T comparable](t *testing.T, body []byte) {
	t.Helper()
	req, err := decodeStrict[T](bytes.NewReader(body))
	if err != nil {
		return
	}
	again, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("accepted %q as %+v, which does not marshal: %v", body, req, err)
	}
	back, err := decodeStrict[T](bytes.NewReader(again))
	if err != nil {
		t.Fatalf("accepted %q as %+v, whose encoding %s is refused: %v", body, req, again, err)
	}
	if back != req {
		t.Fatalf("accepted %q as %+v, which round-trips to %+v", body, req, back)
	}
}

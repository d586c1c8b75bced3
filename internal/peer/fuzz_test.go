package peer

import (
	"reflect"
	"testing"
)

// FuzzPeerDecode drives the decoders that read a stranger's bytes — a
// peer's results document, a batch response, and the batch request rpsd
// accepts from any client — with arbitrary input: they must never panic,
// and whatever decodes must be well formed. The seed corpus under testdata
// holds a SELECT and an ASK document, a batch response and a batch request.
func FuzzPeerDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if res, err := DecodeResult(data); err == nil {
			for _, row := range res.Rows {
				if len(row) != len(res.Vars) {
					t.Fatalf("decoded a %d-cell row under %d variables", len(row), len(res.Vars))
				}
			}
		}
		if rs, err := DecodeBatchResults(data); err == nil {
			for i, r := range rs {
				if r == nil {
					t.Fatalf("batch result %d decoded to nil", i)
				}
			}
		}
		if queries, err := DecodeBatchRequest(data); err == nil {
			enc, err := EncodeBatchRequest(queries)
			if err != nil {
				t.Fatalf("re-encoding a decoded batch request: %v", err)
			}
			again, err := DecodeBatchRequest(enc)
			if err != nil || !reflect.DeepEqual(again, queries) {
				t.Fatalf("batch request round trip: %v", err)
			}
		}
	})
}

package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzWatchStream holds the watch stream reader to encoding/json, line
// by line. Over any stream it must not panic; it must deliver exactly
// the events json.Unmarshal decodes from the stream's "data: " lines, in
// order, up to the first line that does not decode; and that line, or a
// callback error, must end the read with an error. stopAt > 0 makes the
// callback fail on the stopAt-th event. The seeds are the committed
// corpus under testdata/fuzz/FuzzWatchStream.
func FuzzWatchStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte, stopAt uint8) {
		if len(stream) >= maxWatchLineBytes {
			t.Skip("lines this long are a scanner error, not an event")
		}
		errStop := errors.New("stop")
		var got []WatchEvent
		err := readWatchStream(bytes.NewReader(stream), func(ev WatchEvent) error {
			got = append(got, ev)
			if len(got) == int(stopAt) {
				return errStop
			}
			return nil
		})

		var want []WatchEvent
		wantErr := false
		for _, line := range bytes.Split(stream, []byte("\n")) {
			data, ok := bytes.CutPrefix(bytes.TrimSuffix(line, []byte("\r")), []byte("data: "))
			if !ok {
				continue
			}
			var ev WatchEvent
			if json.Unmarshal(data, &ev) != nil {
				wantErr = true
				break
			}
			want = append(want, ev)
			if len(want) == int(stopAt) {
				break
			}
		}

		if len(got) != len(want) {
			t.Fatalf("delivered %d events, want %d: %+v vs %+v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		switch {
		case stopAt > 0 && len(want) == int(stopAt):
			if !errors.Is(err, errStop) {
				t.Fatalf("callback error became %v", err)
			}
		case wantErr:
			if err == nil || errors.Is(err, errStop) {
				t.Fatalf("undecodable line ended the read with %v", err)
			}
		case err != nil:
			t.Fatalf("clean stream ended with %v", err)
		}
	})
}

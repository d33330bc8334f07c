package record

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestMarshalSize(t *testing.T) {
	r := Synthesize(42, 1234)
	b := r.Marshal()
	if len(b) != Size {
		t.Fatalf("Marshal length = %d, want %d", len(b), Size)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := Synthesize(7, 9999999)
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Equal(&r) {
		t.Fatalf("round trip mismatch: got %v want %v", got, r)
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	if _, err := Unmarshal(make([]byte, Size-1)); err != ErrShortBuffer {
		t.Fatalf("Unmarshal(short) error = %v, want ErrShortBuffer", err)
	}
}

func TestEachEncoded(t *testing.T) {
	recs := []Record{Synthesize(1, 10), Synthesize(2, 20), Synthesize(3, 30)}
	var enc []byte
	for i := range recs {
		enc = recs[i].AppendBinary(enc)
	}
	var (
		scratch Record
		got     []Record
	)
	if err := EachEncoded(append(enc, 0xAB), &scratch, func(r *Record) error {
		if r != &scratch {
			t.Fatal("emit was not handed the scratch record")
		}
		got = append(got, *r)
		return nil
	}); err != nil {
		t.Fatalf("EachEncoded: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d (a partial tail is skipped)", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Equal(&recs[i]) {
			t.Fatalf("record %d decoded wrong", i)
		}
	}
	stop := errors.New("stop")
	n := 0
	if err := EachEncoded(enc, &scratch, func(*Record) error { n++; return stop }); err != stop || n != 1 {
		t.Fatalf("EachEncoded = %v after %d emits, want the emit error after 1", err, n)
	}
}

func TestUnmarshalIgnoresTrailingBytes(t *testing.T) {
	r := Synthesize(1, 2)
	buf := append(r.Marshal(), 0xAB, 0xCD)
	got, err := Unmarshal(buf)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.Equal(&r) {
		t.Fatal("trailing bytes changed decoded record")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(id uint64, key uint32, seed int64) bool {
		r := Synthesize(ID(id), Key(key%KeyDomain))
		got, err := Unmarshal(r.Marshal())
		return err == nil && got.Equal(&r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(99, 5)
	b := Synthesize(99, 5)
	if !a.Equal(&b) {
		t.Fatal("Synthesize is not deterministic for identical inputs")
	}
	c := Synthesize(100, 5)
	if a.Payload == c.Payload {
		t.Fatal("Synthesize produced identical payloads for distinct ids")
	}
}

func TestAppendBinaryAppends(t *testing.T) {
	r := Synthesize(3, 4)
	prefix := []byte{1, 2, 3}
	out := r.AppendBinary(append([]byte(nil), prefix...))
	if !bytes.Equal(out[:3], prefix) {
		t.Fatal("AppendBinary clobbered existing prefix")
	}
	if len(out) != 3+Size {
		t.Fatalf("AppendBinary length = %d, want %d", len(out), 3+Size)
	}
}

func TestSortByKeyOrdering(t *testing.T) {
	a := Record{ID: 1, Key: 10}
	b := Record{ID: 2, Key: 10}
	c := Record{ID: 1, Key: 20}
	if SortByKey(a, b) >= 0 {
		t.Fatal("tie on key must be broken by id ascending")
	}
	if SortByKey(b, a) <= 0 {
		t.Fatal("tie-break ordering must be antisymmetric")
	}
	if SortByKey(a, c) >= 0 || SortByKey(c, a) <= 0 {
		t.Fatal("key ordering must dominate id ordering")
	}
	if SortByKey(a, a) != 0 {
		t.Fatal("identical records must compare equal")
	}
}

// TestReaderSplitsRecords: a Reader yields the same bytes whatever sizes
// its Reads take, one byte at a time included, and ends with fill's error.
func TestReaderSplitsRecords(t *testing.T) {
	recs := []Record{Synthesize(1, 10), Synthesize(2, 20), Synthesize(3, 30)}
	var want []byte
	for i := range recs {
		want = recs[i].AppendBinary(want)
		var enc [Size]byte
		SynthesizeInto(enc[:], recs[i].ID, recs[i].Key)
		if !bytes.Equal(enc[:], want[i*Size:]) {
			t.Fatalf("SynthesizeInto(%d) differs from Synthesize's encoding", recs[i].ID)
		}
	}
	for _, r := range []io.Reader{ReaderOf(recs), iotest.OneByteReader(ReaderOf(recs)), iotest.HalfReader(ReaderOf(recs))} {
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes (%v), want %d", len(got), err, len(want))
		}
	}
	boom := errors.New("boom")
	r := NewReader(2, func(i int, dst []byte) error {
		if i == 1 {
			return boom
		}
		recs[i].AppendBinary(dst[:0])
		return nil
	})
	if got, err := io.ReadAll(r); err != boom || !bytes.Equal(got, want[:Size]) {
		t.Fatalf("a failing fill: read %d bytes, %v; want %d, %v", len(got), err, Size, boom)
	}
}

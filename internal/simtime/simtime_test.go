package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUnits(t *testing.T) {
	if Nanosecond != 1000 {
		t.Fatalf("Nanosecond = %d ps, want 1000", int64(Nanosecond))
	}
	if Second != 1e12 {
		t.Fatalf("Second = %d ps, want 1e12", int64(Second))
	}
}

func TestAddSub(t *testing.T) {
	var t0 Time
	t1 := t0.Add(42 * Nanosecond)
	if got := t1.Sub(t0); got != 42*Nanosecond {
		t.Errorf("Sub = %v, want 42ns", got)
	}
}

func TestTimeToSend(t *testing.T) {
	// 576 bytes at 50 Gbps = 92.16 ns (the paper's §2.2 example).
	d := Rate(50 * Gbps).TimeToSend(576)
	if d < 92*Nanosecond || d > 93*Nanosecond {
		t.Errorf("576B@50G = %v, want ~92.16ns", d)
	}
	// 1 byte at 8 bps = 1 s.
	if d := Rate(8).TimeToSend(1); d != Second {
		t.Errorf("1B@8bps = %v, want 1s", d)
	}
}

func TestTimeToSendRoundsUp(t *testing.T) {
	// 1 byte at 3 bps: 8/3 s is not an integer number of ps; must round up.
	d := Rate(3).TimeToSend(1)
	if d.Seconds() < 8.0/3.0 {
		t.Errorf("TimeToSend rounded down: %v s < 8/3 s", d.Seconds())
	}
}

func TestBytesIn(t *testing.T) {
	// 50 Gbps for 90 ns = 562.5 bytes -> 562 whole bytes (paper's slot size).
	if got := Rate(50 * Gbps).BytesIn(90 * Nanosecond); got != 562 {
		t.Errorf("BytesIn = %d, want 562", got)
	}
	if got := Rate(50 * Gbps).BytesIn(0); got != 0 {
		t.Errorf("BytesIn(0) = %d, want 0", got)
	}
	if got := Rate(50 * Gbps).BytesIn(-Nanosecond); got != 0 {
		t.Errorf("BytesIn(<0) = %d, want 0", got)
	}
}

func TestRoundTripStd(t *testing.T) {
	d := 1234 * Nanosecond
	if got := FromStd(d.Std()); got != d {
		t.Errorf("FromStd(Std) = %v, want %v", got, d)
	}
	if FromStd(time.Microsecond) != Microsecond {
		t.Error("FromStd(1us) != 1us")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{100 * Nanosecond, "100ns"},
		{1600 * Nanosecond, "1.6us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d ps String = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestPropertyTimeToSendInverse(t *testing.T) {
	// For any byte count, sending then asking how many bytes fit in that
	// time must return at least the byte count minus one (rounding slack).
	f := func(n uint16) bool {
		r := Rate(50 * Gbps)
		d := r.TimeToSend(int(n))
		got := r.BytesIn(d)
		return got >= int(n)-1 && got <= int(n)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAddSubIdentity(t *testing.T) {
	f := func(t0 int64, d int32) bool {
		tt := Time(t0 % (1 << 50))
		dd := Duration(d)
		return tt.Add(dd).Sub(tt) == dd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	tt := Time(2 * Second)
	if tt.Seconds() != 2 {
		t.Errorf("Seconds = %v", tt.Seconds())
	}
	if d := 5 * Nanosecond; d.Nanoseconds() != 5 {
		t.Errorf("Nanoseconds = %v", d.Nanoseconds())
	}
	d := 7 * Picosecond
	if d.Picoseconds() != 7 {
		t.Errorf("Picoseconds = %v", d.Picoseconds())
	}
	if got := Rate(400 * Gbps).Gbit(); got != 400 {
		t.Errorf("Gbit = %v", got)
	}
	if got := Time(1600 * Nanosecond).String(); got != "1.6us" {
		t.Errorf("Time.String = %q", got)
	}
}

func TestTimeToSendPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero rate did not panic")
		}
	}()
	Rate(0).TimeToSend(1)
}

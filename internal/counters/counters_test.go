package counters

import (
	"strings"
	"testing"
)

func TestCounterNames(t *testing.T) {
	cases := map[Counter]string{
		TotIns: "PAPI_TOT_INS",
		TotCyc: "PAPI_TOT_CYC",
		L1DCM:  "PAPI_L1_DCM",
		L2DCM:  "PAPI_L2_DCM",
		FPOps:  "PAPI_FP_OPS",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
		got, err := ParseCounter(want)
		if err != nil || got != c {
			t.Errorf("ParseCounter(%q) = %v, %v", want, got, err)
		}
	}
	if Counter(200).String() != "PAPI_UNKNOWN_200" {
		t.Errorf("unknown counter name = %q", Counter(200).String())
	}
	if _, err := ParseCounter("PAPI_NOPE"); err == nil {
		t.Error("ParseCounter of bogus name must fail")
	}
}

func TestValuesArithmetic(t *testing.T) {
	a := Values{100, 200, 10, 5, 50}
	b := Values{40, 100, 4, 1, 20}
	d := a.Sub(b)
	if d != (Values{60, 100, 6, 4, 30}) {
		t.Fatalf("Sub = %v", d)
	}
}

func TestValuesIPC(t *testing.T) {
	v := Values{}
	if v.IPC() != 0 {
		t.Fatal("IPC with zero cycles must be 0")
	}
	v[TotIns] = 300
	v[TotCyc] = 200
	if got := v.IPC(); got != 1.5 {
		t.Fatalf("IPC = %v, want 1.5", got)
	}
}

func TestValuesString(t *testing.T) {
	v := Values{1, 2, 3, 4, 5}
	s := v.String()
	if !strings.Contains(s, "PAPI_TOT_INS=1") || !strings.Contains(s, "PAPI_FP_OPS=5") {
		t.Fatalf("String = %q", s)
	}
}

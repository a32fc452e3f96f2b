package main

import (
	"testing"
	"time"
)

func runOf(ms ...float64) driven {
	var d driven
	for _, v := range ms {
		d.spans = append(d.spans, span{HostMs: v})
	}
	return d
}

func TestFastestSumsEachSpansMinimum(t *testing.T) {
	got, err := fastest([]driven{runOf(3, 9, 4), runOf(5, 2, 4), runOf(4, 6, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * time.Millisecond; got != want {
		t.Errorf("fastest = %v, want %v (3 + 2 + 1 ms)", got, want)
	}
}

func TestFastestRejectsRunsOfDifferentLength(t *testing.T) {
	if _, err := fastest([]driven{runOf(1, 2), runOf(1, 2, 3)}); err == nil {
		t.Error("runs with 2 and 3 spans: want an error")
	}
}

func TestCalibrationScale(t *testing.T) {
	c := &calibration{times: []float64{0.004, 0.0021, 0.0021, 0.0021, 0.0021}}
	if got := c.scale(); got < 0.9999 || got > 1.0001 {
		t.Errorf("scale = %v with a 25th-percentile step of 2.1 ms, want 1", got)
	}
}

package lib

import "testing"

func TestTested(t *testing.T) {
	Hook()
	if (&Counter{}).Tested() != 0 {
		t.Fatal("fresh counter is not zero")
	}
}

package exec

import (
	"errors"
	"fmt"
	"testing"
)

// TestAsTrap: AsTrap finds a trap wherever errors.As would, through %w,
// errors.Join and a join nested in a wrap, returns the first in
// errors.As order, and finds none in errors without one.
func TestAsTrap(t *testing.T) {
	first, second := &Trap{Kind: TrapUnreachable}, &Trap{Kind: TrapFuelExhausted}
	plain := errors.New("plain")
	for _, c := range []struct {
		name string
		err  error
		want *Trap
	}{
		{"bare", first, first},
		{"wrapped", fmt.Errorf("host: %w", first), first},
		{"wrapped twice", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", first)), first},
		{"joined", errors.Join(plain, first), first},
		{"joined first wins", errors.Join(first, second), first},
		{"nested join", fmt.Errorf("apply: %w", errors.Join(plain, errors.Join(fmt.Errorf("x: %w", second), first))), second},
		{"multi-%w", fmt.Errorf("%w and %w", plain, second), second},
		{"plain", plain, nil},
		{"wrapped plain", fmt.Errorf("host: %w", plain), nil},
		{"joined plain", errors.Join(plain, errors.New("other")), nil},
		{"nil", nil, nil},
	} {
		got, ok := AsTrap(c.err)
		if got != c.want || ok != (c.want != nil) {
			t.Errorf("%s: AsTrap = %v, %v; want %v", c.name, got, ok, c.want)
		}
		var viaAs *Trap
		if errors.As(c.err, &viaAs) != ok || viaAs != got {
			t.Errorf("%s: AsTrap = %v, errors.As found %v", c.name, got, viaAs)
		}
	}
}

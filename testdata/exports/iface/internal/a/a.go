package a

import (
	"fmt"
	"sort"
)

// Celsius is a temperature.
type Celsius float64

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1f C", float64(c)) }

// Size implements Sizer.
func (c Celsius) Size() int { return 8 }

// Kelvin implements nothing, and nothing calls it.
func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 }

// Sizer is an interface of the program.
type Sizer interface{ Size() int }

// Temps implements sort.Interface.
type Temps []Celsius

func (t Temps) Len() int           { return len(t) }
func (t Temps) Less(i, j int) bool { return t[i] < t[j] }
func (t Temps) Swap(i, j int)      { t[i], t[j] = t[j], t[i] }

// Sorted sorts ts in place and returns it.
func Sorted(ts Temps) Temps {
	sort.Sort(ts)
	return ts
}

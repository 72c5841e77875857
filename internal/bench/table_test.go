package bench

// Get returns the value at (series name, x index): the tests read
// table cells through it.
func (t *Table) Get(series string, xi int) (float64, bool) {
	for _, s := range t.Series {
		if s.Name == series {
			if xi < 0 || xi >= len(s.Values) {
				return 0, false
			}
			return s.Values[xi], true
		}
	}
	return 0, false
}

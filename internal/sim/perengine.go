package sim

// PerEngine builds the instances of one kind of hot mutable state: one *T
// per engine that executes events. engs[i] is the engine running slot i (a
// cluster, to every caller); slots on the same engine share one instance,
// built by mk(first) for the lowest such slot. bySlot[i] is slot i's
// instance, each the distinct instances in first-slot order — the set a
// read-side fold sums over. An engine runs one event at a time, so an
// instance needs no lock. The sequential engine is the one-engine case: one
// instance, every slot an alias of it.
func PerEngine[T any](engs []*Engine, mk func(first int) *T) (bySlot, each []*T) {
	bySlot = make([]*T, len(engs))
	for i, e := range engs {
		for j := 0; j < i && bySlot[i] == nil; j++ {
			if engs[j] == e {
				bySlot[i] = bySlot[j]
			}
		}
		if bySlot[i] == nil {
			bySlot[i] = mk(i)
			each = append(each, bySlot[i])
		}
	}
	return bySlot, each
}

package policy

// Age is the oldest-first baseline (Abts & Weisser, SC'07), the other
// region-oblivious technique Section III.A discusses: packets are
// prioritized purely by age, with no application or region awareness.
// Starvation-free by construction (age only grows), but it lets any flood —
// including an adversarial one — inherit priority as it waits.
type Age struct{}

// NewAge returns the oldest-first policy (stateless).
func NewAge(node, app int) Policy { return Age{} }

// maxAge caps the priority contribution of age; far beyond any sane
// in-network latency, it only guards against integer overflow.
const maxAge = 1 << 30

func agePriority(r Requestor, now int64) int {
	age := now - r.CreatedAt
	if age < 0 {
		age = 0
	}
	if age > maxAge {
		age = maxAge
	}
	return int(age)
}

// VAOutPriority implements Policy: older packets win everywhere.
func (Age) VAOutPriority(r Requestor, _ VCClass, now int64) int { return agePriority(r, now) }

// SAPriority implements Policy.
func (Age) SAPriority(r Requestor, now int64) int { return agePriority(r, now) }

// Update implements Policy; age keeps no router state.
func (Age) Update(int, int) {}

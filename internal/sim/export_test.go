package sim

import "nephelix/internal/model"

// ManagerCount is the number of QoS managers reporters are registered
// with round-robin.
const ManagerCount = managerCount

// Wiring is how a simulation's channels are laid out, in the terms the
// external wiring test compares against a one-channel-at-a-time
// reference.
type Wiring struct {
	// Channels is s.chanSlots in order; Managers[i] is the index of the
	// manager Channels[i] registered with.
	Channels []model.ChannelID
	Managers []int
	// Gates holds every active or draining task's gates' consumer lists,
	// by out-edge position; In every task's inbound channels in order.
	Gates map[model.TaskID][][]model.ChannelID
	In    map[model.TaskID][]model.ChannelID
}

// Wiring snapshots the current channel layout. It must be called
// before Run: it identifies a channel's manager by its registration
// handle, which a channel's first report fills in.
func (s *Sim) Wiring() Wiring {
	w := Wiring{Gates: map[model.TaskID][][]model.ChannelID{}, In: map[model.TaskID][]model.ChannelID{}}
	for _, ch := range s.chanSlots {
		w.Channels = append(w.Channels, ch.id)
		m := -1
		for i, mgr := range s.managers {
			if ch.history == mgr.RegisterChannel() {
				m = i
			}
		}
		w.Managers = append(w.Managers, m)
	}
	for _, t := range s.taskSlots {
		gates := make([][]model.ChannelID, len(t.gates))
		for pos, g := range t.gates {
			for _, ch := range g.Consumers() {
				gates[pos] = append(gates[pos], ch.id)
			}
		}
		w.Gates[t.id] = gates
		for _, ch := range t.in {
			w.In[t.id] = append(w.In[t.id], ch.id)
		}
	}
	return w
}

// AddTasks scales vertex up by n tasks outside the control loop.
func (s *Sim) AddTasks(vertex string, n int) int { return s.vertices[vertex].addTasks(n) }

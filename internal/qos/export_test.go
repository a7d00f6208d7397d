package qos

import "nephelix/internal/model"

// The by-id form of the handles' Forget, for this package's tests.

// Forget drops the history of a task by id.
func (m *Manager) Forget(task model.TaskID) {
	if h := m.tasks.byID[task]; h != nil {
		h.forget()
	}
}

// ForgetChannel drops the history of a channel by id.
func (m *Manager) ForgetChannel(ch model.ChannelID) {
	if h := m.channels.byID[ch]; h != nil {
		h.forget()
	}
}

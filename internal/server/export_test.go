package server

// WireVerbs lists every verb the server answers outside the shared
// command table: the server verbs and the session-queued special verbs.
func WireVerbs() []string {
	var out []string
	for v := range serverVerbs {
		out = append(out, v)
	}
	for v := range specialVerbs {
		out = append(out, v)
	}
	return out
}

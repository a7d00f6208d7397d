package ts

import (
	"strings"
	"testing"
)

// FuzzFamilyLabels: whatever the label values contain, distinct tuples
// are distinct series and equal tuples the same one — both through the
// family's tuple-keyed cache and through a second declaration that has no
// cache and resolves by SeriesKey, which is where the key's quoting is
// what keeps `x","y` apart from the pair (x, y) — and each rendered
// /metrics line parses back to exactly the values it was declared with.
func FuzzFamilyLabels(f *testing.F) {
	f.Add("a", "b", "a", "b")
	f.Add(`x","y="z`, "", "x", `y="z`)
	f.Add(`a,"y"=b`, "", "a", `b,"y"=`) // one key, were SeriesKey to stop quoting values
	f.Add("say \"hi\"\nnow", `back\slash`, `say "hi"`, "now")
	f.Add("k=v,k2=v2", "{}", "k=v", "k2=v2,{}")
	f.Add(`\`, `\\`, `\\`, `\`)
	f.Add(`\n`, "\n", "\n", `\n`)
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2 string) {
		st := NewStore(2)
		cached, fresh := st.Family(Gauge, "fz", "Fuzz.", "x", "y"), st.Family(Gauge, "fz", "Fuzz.", "x", "y")
		sa, sb := cached.With(a1, a2), cached.With(b1, b2)
		if sa == nil || sb == nil {
			t.Fatal("With returned a no-op series")
		}
		same := a1 == b1 && a2 == b2
		if (sa == sb) != same {
			t.Fatalf("tuples (%q,%q) and (%q,%q): same series %v, want %v", a1, a2, b1, b2, sa == sb, same)
		}
		if cached.With(a1, a2) != sa || fresh.With(a1, a2) != sa || fresh.With(b1, b2) != sb {
			t.Fatal("a tuple resolved to another series the second time")
		}
		want := 2
		if same {
			want = 1
		}
		if st.Len() != want {
			t.Fatalf("store holds %d series, want %d", st.Len(), want)
		}

		sa.Set(0, 1)
		sb.Set(0, 2) // overwrites when the tuples are equal
		var b strings.Builder
		WriteExposition(&b, st.Query("", 0, 0))
		got := map[[2]string]string{}
		for _, line := range strings.Split(b.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, `fz{x="`); ok {
				x, rest := unescapeLabel(t, rest)
				rest, ok = strings.CutPrefix(rest, `,y="`)
				if !ok {
					t.Fatalf("no y label in %q", line)
				}
				y, rest := unescapeLabel(t, rest)
				got[[2]string{x, y}] = rest
			}
		}
		if len(got) != want || got[[2]string{b1, b2}] != "} 2" || (!same && got[[2]string{a1, a2}] != "} 1") {
			t.Fatalf("exposition\n%sparsed back as %q", b.String(), got)
		}
	})
}

// unescapeLabel reads one escaped label value up to its closing quote and
// returns it with what follows the quote.
func unescapeLabel(t *testing.T, s string) (value, rest string) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:]
		case '\\':
			i++
			if i == len(s) {
				t.Fatalf("dangling backslash in %q", s)
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				t.Fatalf("unknown escape \\%c in %q", s[i], s)
			}
		default:
			b.WriteByte(s[i])
		}
	}
	t.Fatalf("unterminated label value %q", s)
	return "", ""
}

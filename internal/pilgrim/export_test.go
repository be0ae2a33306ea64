package pilgrim

import "pilgrim/internal/nws"

// BankState exports the named platform's forecaster bank, for tests
// outside the package that check what an observation taught it.
func BankState(r *Registry, name string) nws.BankState {
	re, ok := r.lookup(name)
	if !ok {
		return nws.BankState{}
	}
	re.fmu.Lock()
	defer re.fmu.Unlock()
	return re.bank.ExportState()
}
